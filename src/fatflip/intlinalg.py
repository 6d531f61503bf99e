"""Exact integer linear algebra helpers.

Dense matrices, as large as 4,197 x 7 (the genus-3 loop identity).
Smith reduction is the plain quadratic one on the matrix alone; it
records its moves and builds each transform from them when it is read.
``gram`` and ``symplectic_basis``, which keeps the Gram matrix of its
working basis as sparse rows, cost only the nonzeros of the sparse
pairings.  Matrices are lists of lists of ints; nothing leaves Z.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import add, mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

Matrix = List[List[int]]


class LinAlgError(ValueError):
    pass


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Matrix:
    return [[0] * n for _ in range(m)]


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """The product a * b, adding a[i][k] * (row k of b) only where
    a[i][k] is nonzero.  As in a dense sum over ``zip``, entries of a
    row of a past len(b) are ignored, and the product is as wide as the
    narrowest row of b."""
    width = min(map(len, b), default=0)
    out = []
    for row in a:
        acc = [0] * width
        for x, b_row in compress(zip(row, b), row):
            acc = list(map(add, acc, map(mul, repeat(x), b_row)))
        out.append(acc)
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(map(mul, row, v)) for row in a]


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


class SmithResult:
    """u * a * v == s, diagonal with nonnegative entries, each dividing
    the next.  :func:`smith` keeps u = E_k ... E_1 and v = F_1 ... F_k as
    their moves, and each transform is built on its first read, so a
    caller pays only for what it reads."""

    def __init__(self, s: Matrix, rank: int, n: int, rows: list, cols: list):
        self.s, self.rank, self._m, self._n = s, rank, len(s), n  # m x n
        self._rows, self._cols = rows, cols

    @property
    def invariants(self) -> List[int]:
        return [self.s[i][i] for i in range(self.rank)]

    u = cached_property(lambda r: _moved(identity(r._m), r._rows))
    u_inv = cached_property(lambda r: _moved(identity(r._m), r._rows[::-1], -1))
    v = cached_property(lambda r: _moved(identity(r._n), r._cols[::-1]))
    v_inv = cached_property(lambda r: _moved(identity(r._n), r._cols, -1))


def _moved(rows: Matrix, moves: Iterable[tuple], sign: int = 1) -> Matrix:
    """``rows`` multiplied on the left by each move in turn, or with sign
    -1 by its inverse: (i, j, q) is row_i += sign * q * row_j, (i, j,
    None) swaps rows i and j and (i, i, -1) negates row i."""
    for i, j, q in moves:
        if q is None:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q *= sign
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return rows


def _least_entry(m: Matrix, t: int, nrows: int, ncols: int):
    """Position of the first entry of least absolute value in the block
    from (t, t) on, in row order, or None if the block is zero.  Only a
    strictly smaller entry replaces the best so far, so the scan may stop
    at the first unit."""
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


def _width(rows: Sequence[Sequence[int]], what: str) -> int:
    """The one length of ``rows``, 0 for no rows; LinAlgError naming the
    lengths when they differ."""
    widths = sorted(set(map(len, rows)))
    if len(widths) > 1:
        raise LinAlgError("%s have lengths %s" % (what, widths))
    return widths[0] if widths else 0


def smith(a: Sequence[Sequence[int]]) -> SmithResult:
    """Smith normal form with unimodular transforms: a :class:`SmithResult`
    with u*a*v == s diagonal, nonnegative diagonal entries, each dividing
    the next.  Only the matrix is reduced here; its moves are recorded.
    Rows of different lengths raise LinAlgError.
    """
    m = [list(row) for row in a]
    nrows, ncols = len(m), _width(m, "matrix rows")
    row_moves, col_moves = [], []

    def row_move(i, j, q):  # m = E m for the move E, see _moved
        row_moves.append((i, j, q))
        _moved(m, row_moves[-1:])

    def col_move(i, j, q):  # m = m E: col_j += q * col_i, or a swap
        col_moves.append((i, j, q))
        for row in m:
            if q is None:
                row[i], row[j] = row[j], row[i]
            else:
                row[j] += q * row[i]

    t = 0
    while t < min(nrows, ncols):
        pivot = _least_entry(m, t, nrows, ncols)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                row_move(t, pivot[0], None)
            if pivot[1] != t:
                col_move(t, pivot[1], None)
        if m[t][t] < 0:
            row_move(t, t, -1)

        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_move(i, t, -q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, ncols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_move(t, j, -q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates

        # divisibility: m[t][t] must divide the rest of the block; a unit
        # divides everything
        if m[t][t] != 1:
            offender = next((i for i in range(t + 1, nrows)
                             if any(x % m[t][t] for x in m[i][t + 1:])), None)
            if offender is not None:
                row_move(t, offender, 1)
                continue
        t += 1

    rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i])
    return SmithResult(m, rank, ncols, row_moves, col_moves)


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    if not a or len(a) != len(a[0]):
        return False
    res = smith(a)
    return res.rank == len(a) and all(d == 1 for d in res.invariants)


class Cokernel(NamedTuple):
    invariants: List[int]   # nontrivial elementary divisors of the relations
    projection: Matrix      # (n - rank) x n, coordinates in the quotient
    section: Matrix         # n x (n - rank), lifts of the quotient basis


def cokernel(relations: Sequence[Sequence[int]]) -> Cokernel:
    """Basis data for Z^n / colspan(relations).

    ``relations`` is an n x k matrix whose columns span the subgroup to
    divide out.  The quotient is free iff all invariants are 1.
    """
    res = smith(relations)
    n = len(relations)
    proj = [res.u[i] for i in range(res.rank, n)]
    sect = [[res.u_inv[i][j] for j in range(res.rank, n)] for i in range(n)]
    return Cokernel(res.invariants, proj, sect)


def solve_transform(xs: Sequence[Sequence[int]],
                    ys: Sequence[Sequence[int]]) -> Optional[Matrix]:
    """The unique integer matrix T with T*x == y for all given pairs.

    Returns None when no integer T is consistent with the data, and
    raises LinAlgError when the x vectors do not span full rank (the
    solution would not be unique) or the x or the y vectors differ in
    length.
    """
    if len(xs) != len(ys) or not xs:
        raise LinAlgError("need equally many x and y vectors")
    r = _width(xs, "x vectors")
    x_mat = [[x[i] for x in xs] for i in range(r)]
    width = _width(ys, "y vectors")
    res = smith(x_mat)
    if res.rank < r:
        raise LinAlgError("sample vectors span rank %d < %d" % (res.rank, r))
    # With X = U^-1 S V^-1, T X = Y holds exactly when W S = Y V for
    # W = T U^-1.  W's columns are those of Y V over the invariants; a
    # remainder, or a nonzero column of Y V past r, makes W S differ
    # from Y V, so the closing check alone decides consistency.  (Y V)^T
    # is the y moved by the row moves of V^T: V itself is never built.
    yv = _moved([list(y) for y in ys], [(j, i, q) for i, j, q in res._cols])
    t = mat_mul([[yv[j][k] // dj for j, dj in enumerate(res.invariants)]
                 for k in range(width)], res.u)
    if any(mat_vec(t, x) != list(y) for x, y in zip(xs, ys)):
        return None
    return t


def standard_symplectic(g: int) -> Matrix:
    """Block matrix pairing the basis as (A1, B1, ..., Ag, Bg), Ai.Bi = 1."""
    j = zeros(2 * g, 2 * g)
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def gram(entries: Iterable[Tuple[int, int, int]],
         vectors: Sequence[Iterable[Tuple[int, int]]]) -> Matrix:
    """The pairings [[x^T F y for y in vectors] for x in vectors], from
    the nonzero entries (r, c, f) of F and the nonzero (coordinate,
    value) pairs of each vector: an entry adds f * x[r] * y[c] for the x
    nonzero at r and the y nonzero at c, so zeros cost nothing."""
    at: Dict[int, List[Tuple[int, int]]] = {}  # coordinate -> (i, value)
    for i, v in enumerate(vectors):
        for k, x in v:
            at.setdefault(k, []).append((i, x))
    out = [[0] * len(vectors) for _ in vectors]
    for r, c, f in entries:
        for i, x in at.get(r, ()):
            for j, y in at.get(c, ()):
                out[i][j] += f * x * y
    return out


def symplectic_basis(pairing: Sequence[Sequence[int]]) -> Matrix:
    """Integer change of basis S with S^T * pairing * S standard.

    ``pairing`` must be square, skew-symmetric and unimodular; the
    columns of S are a symplectic basis ordered (A1, B1, A2, B2, ...).
    Raises LinAlgError otherwise.  The basis vectors b_a are sparse dicts
    with Gram matrix pair[a][b] = pairing(b_a, b_b) in sparse skew rows:
    a step b_k += q * b_j updates b_k and row and column k from the
    nonzeros of b_j and of row j, so pairings are read, not recomputed.
    The closing check S^T * pairing * S == J is a separate gram product.
    """
    n = len(pairing)
    if any(len(row) != n for row in pairing):
        raise LinAlgError("pairing must be square, got %d rows of lengths %s"
                          % (n, sorted({len(row) for row in pairing})))
    if n % 2:
        raise LinAlgError("skew unimodular forms have even rank")
    for i, (row, col) in enumerate(zip(pairing, zip(*pairing))):
        if row[i]:
            raise LinAlgError("pairing is not alternating")
        if any(map(add, row, col)):
            raise LinAlgError("pairing is not skew-symmetric")

    pair = [dict(zip(compress(range(n), row), filter(None, row)))
            for row in pairing]
    entries = [(i, j, x) for i, row in enumerate(pair) for j, x in row.items()]
    basis: List[Dict[int, int]] = [{i: 1} for i in range(n)]

    def add_multiple(k, q, j):  # b_k += q * b_j
        bk, pk = basis[k], pair[k]
        for i, x in basis[j].items():
            bk[i] = bk.get(i, 0) + q * x
            if not bk[i]:
                del bk[i]
        for i, x in pair[j].items():
            if i != k:  # pair[k][k] stays 0
                pk[i] = y = pk.get(i, 0) + q * x
                pair[i][k] = -y
                if not y:
                    del pk[i], pair[i][k]

    columns: List[Dict[int, int]] = []
    for u in range(n):  # the unpaired basis vectors in index order
        row = pair[u]
        if row is None:
            continue
        if not row:
            raise LinAlgError("degenerate pairing: isotropic leftover vector")
        # integer column ops on the unpaired vectors until a single
        # pairing value with u survives; this preserves their lattice
        while len(row) > 1:
            nz = sorted(row)
            k_small = min(nz, key=lambda k: abs(row[k]))
            for k in nz:
                if k != k_small:
                    add_multiple(k, -(row[k] // row[k_small]), k_small)
        [(v, e)] = row.items()
        if abs(e) != 1:
            raise LinAlgError("pairing is not unimodular (gcd %d)" % abs(e))
        # pairing(u, w) is now 0 for every unpaired w but v, so
        # w + pairing(e * v, w) * u is orthogonal to u and e * v
        for w, x in list(pair[v].items()):
            if w != u:
                add_multiple(w, e * x, u)
        pair[u] = pair[v] = None
        columns += basis[u], {i: e * x for i, x in basis[v].items()}

    s = zeros(n, n)
    for j, col in enumerate(columns):
        for i, x in col.items():
            s[i][j] = x
    if gram(entries, [col.items() for col in columns]) \
            != standard_symplectic(n // 2):
        raise LinAlgError("symplectic reduction failed to reach standard form")
    return s
