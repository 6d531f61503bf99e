"""Exact integer linear algebra helpers.

Small matrices only (a few dozen rows), so the plain quadratic Smith
reduction with full transform tracking is entirely adequate.  Matrices
are lists of lists of Python ints; nothing here ever leaves Z.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

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
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_eq(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    return [list(r) for r in a] == [list(r) for r in b]


class SmithResult(NamedTuple):
    s: Matrix        # the diagonal form, u * a * v == s
    u: Matrix
    v: Matrix
    u_inv: Matrix
    v_inv: Matrix
    rank: int

    @property
    def invariants(self) -> List[int]:
        return [self.s[i][i] for i in range(self.rank)]


def smith(a: Sequence[Sequence[int]]) -> SmithResult:
    """Smith normal form with unimodular transforms.

    Returns (s, u, v, u_inv, v_inv, rank) with u*a*v == s diagonal,
    nonnegative diagonal entries, each dividing the next.
    """
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    u, u_inv = identity(nrows), identity(nrows)
    v, v_inv = identity(ncols), identity(ncols)

    def row_add(i, j, q):  # row_i += q * row_j
        m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(nrows):  # u_inv: col_j -= q * col_i
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

    def col_add(j, i, q):  # col_j += q * col_i
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
        # pivot: entry of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                x = m[i][j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
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
            continue  # remainders became new, smaller pivot candidates

        # divisibility: m[t][t] must divide the rest of the block
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i])
    return SmithResult(m, u, v, u_inv, v_inv, rank)


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    if not a or len(a) != len(a[0]):
        return False
    res = smith(a)
    return res.rank == len(a) and all(d == 1 for d in res.invariants)


def invert_unimodular(a: Sequence[Sequence[int]]) -> Matrix:
    """Inverse of a square matrix with determinant +-1."""
    res = smith(a)
    n = len(a)
    if res.rank != n or any(d != 1 for d in res.invariants):
        raise LinAlgError("matrix is not unimodular")
    # u*a*v == 1  =>  a^-1 == v*u
    return mat_mul(res.v, res.u)


class Cokernel(NamedTuple):
    invariants: List[int]   # nontrivial elementary divisors of the relations
    projection: Matrix      # (n - rank) x n, coordinates in the quotient
    section: Matrix         # n x (n - rank), lifts of the quotient basis

    @property
    def free_rank(self) -> int:
        return len(self.projection)


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
    solution would not be unique).
    """
    if len(xs) != len(ys) or not xs:
        raise LinAlgError("need equally many x and y vectors")
    r = len(xs[0])
    x_mat = [[x[i] for x in xs] for i in range(r)]
    y_mat = [[y[i] for y in ys] for i in range(len(ys[0]))]
    res = smith(x_mat)
    if res.rank < r:
        raise LinAlgError("sample vectors span rank %d < %d" % (res.rank, r))
    z = mat_mul(y_mat, res.v)
    w = zeros(len(y_mat), r)
    for j in range(len(xs)):
        if j < r:
            d = res.s[j][j]
            for i in range(len(y_mat)):
                if z[i][j] % d:
                    return None
                w[i][j] = z[i][j] // d
        else:
            if any(z[i][j] for i in range(len(y_mat))):
                return None
    t = mat_mul(w, res.u)
    for x, y in zip(xs, ys):
        if mat_vec(t, x) != list(y):
            return None
    return t


def standard_symplectic(g: int) -> Matrix:
    """Block matrix pairing the basis as (A1, B1, ..., Ag, Bg), Ai.Bi = 1."""
    j = zeros(2 * g, 2 * g)
    for i in range(g):
        j[2 * i][2 * i + 1] = 1
        j[2 * i + 1][2 * i] = -1
    return j


def symplectic_basis(pairing: Sequence[Sequence[int]]) -> Matrix:
    """Integer change of basis S with S^T * pairing * S standard.

    ``pairing`` must be skew-symmetric and unimodular; the columns of
    the returned S are a symplectic basis ordered (A1, B1, A2, B2, ...).
    Raises LinAlgError otherwise.
    """
    n = len(pairing)
    if n % 2:
        raise LinAlgError("skew unimodular forms have even rank")
    for i in range(n):
        if pairing[i][i] != 0:
            raise LinAlgError("pairing is not alternating")
        for j in range(n):
            if pairing[i][j] != -pairing[j][i]:
                raise LinAlgError("pairing is not skew-symmetric")

    def pair(x, y):
        return sum(x[i] * pairing[i][j] * y[j]
                   for i in range(n) for j in range(n) if pairing[i][j])

    remaining = [list(col) for col in identity(n)]
    columns: List[List[int]] = []
    while remaining:
        u = remaining.pop(0)
        vals = [pair(u, w) for w in remaining]
        if all(x == 0 for x in vals):
            raise LinAlgError("degenerate pairing: isotropic leftover vector")
        # integer column ops on `remaining` until a single pairing value +-1
        # survives; this preserves the lattice they span.
        while True:
            nz = [k for k, x in enumerate(vals) if x]
            if len(nz) == 1 and abs(vals[nz[0]]) == 1:
                break
            if len(nz) == 1:
                raise LinAlgError("pairing is not unimodular (gcd %d)"
                                  % abs(vals[nz[0]]))
            k_small = min(nz, key=lambda k: abs(vals[k]))
            for k in nz:
                if k == k_small:
                    continue
                q = vals[k] // vals[k_small]
                vals[k] -= q * vals[k_small]
                remaining[k] = [x - q * y for x, y in
                                zip(remaining[k], remaining[k_small])]
        k = nz[0]
        v = remaining.pop(k)
        if vals[k] == -1:
            v = [-x for x in v]
        # make the rest orthogonal to the hyperbolic pair (u, v)
        for idx, w in enumerate(remaining):
            pu, pv = pair(u, w), pair(v, w)
            remaining[idx] = [wx - pu * vx + pv * ux
                              for wx, vx, ux in zip(w, v, u)]
        columns.append(u)
        columns.append(v)

    s = [[columns[j][i] for j in range(n)] for i in range(n)]
    check = mat_mul(transpose(s), mat_mul([list(r) for r in pairing], s))
    if not mat_eq(check, standard_symplectic(n // 2)):
        raise LinAlgError("symplectic reduction failed to reach standard form")
    return s
