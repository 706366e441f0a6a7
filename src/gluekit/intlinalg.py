"""Exact integer linear algebra: Smith normal form, solving, kernels.

Matrices are tuples of row tuples over built-in ints, so there is no
overflow to detect: every intermediate entry lives in arbitrary precision.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul, sub

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]

# entries kept by the snf cache, so a long batch stays bounded in memory
_SNF_CACHE_SIZE = 4096


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def shape(a: Matrix) -> tuple[int, int]:
    m = len(a)
    n = len(a[0]) if m else 0
    return m, n


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ma, na = shape(a)
    mb, nb = shape(b)
    if na != mb:
        raise ValueError(f"shape mismatch: {ma}x{na} times {mb}x{nb}")
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if shape(a)[1] != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(a, b))


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b):
        raise ValueError("row count mismatch in hstack")
    return tuple(ra + rb for ra, rb in zip(a, b))


def columns(a: Matrix) -> list[Vector]:
    return list(zip(*a))


def from_columns(cols: list[Vector], rows: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(rows))


@lru_cache(maxsize=_SNF_CACHE_SIZE)
def snf(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: returns (U, S, V) with U*a*V = S.

    U and V are unimodular; S is diagonal with non-negative entries
    d_1 | d_2 | ... forming a divisibility chain.
    """
    m, n = shape(a)
    S = [list(row) for row in a]
    U = [list(row) for row in identity(m)]
    V = [list(row) for row in identity(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for col in range(n):
            S[i][col] -= q * S[j][col]
        for col in range(m):
            U[i][col] -= q * U[j][col]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in range(m):
            S[row][i] -= q * S[row][j]
        for row in range(n):
            V[row][i] -= q * V[row][j]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # pick the nonzero entry of least magnitude as pivot
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if S[i][j] != 0 and (pivot is None or abs(S[i][j]) < abs(S[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            if pivot != (t, t):
                if pivot[0] != t:
                    swap_rows(t, pivot[0])
                if pivot[1] != t:
                    swap_cols(t, pivot[1])
            if S[t][t] < 0:
                for col in range(n):
                    S[t][col] = -S[t][col]
                for col in range(m):
                    U[t][col] = -U[t][col]
            d = S[t][t]
            for i in range(t + 1, m):
                if S[i][t] != 0:
                    row_op(i, t, S[i][t] // d)
            for j in range(t + 1, n):
                if S[t][j] != 0:
                    col_op(j, t, S[t][j] // d)
            # remainders smaller than the pivot force another sweep
            pivot = (t, t)
            for i in range(t, m):
                for j in range(t, n):
                    if S[i][j] != 0 and abs(S[i][j]) < abs(S[pivot[0]][pivot[1]]):
                        pivot = (i, j)
            if pivot != (t, t):
                continue
            clean = all(S[i][t] == 0 for i in range(t + 1, m)) and all(
                S[t][j] == 0 for j in range(t + 1, n)
            )
            if not clean:
                continue
            # enforce the divisibility chain: fold a bad entry into row t
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % S[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # row_t += row_bad
            pivot = (t, t)
        t += 1
    return freeze(U), freeze(S), freeze(V)


def snf_diagonal(a: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form of ``a``."""
    _, s, _ = snf(a)
    m, n = shape(s)
    return tuple(s[i][i] for i in range(min(m, n)) if s[i][i] != 0)


def rank(a: Matrix) -> int:
    return len(snf_diagonal(a))


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of the integer kernel {x : a*x = 0}, as column vectors."""
    m, n = shape(a)
    if n == 0:
        return []
    _, s, v = snf(a)
    r = len(snf_diagonal(a))
    cols = columns(v)
    return cols[r:]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """An integer solution x of a*x = b, or None.

    The witness is verified by substitution before being returned.
    """
    m, n = shape(a)
    if len(b) != m:
        raise ValueError("dimension mismatch in solve")
    if n == 0:
        return () if all(x == 0 for x in b) else None
    u, s, v = snf(a)
    y = mat_vec(u, b)
    z = [0] * n
    for i in range(m):
        d = s[i][i] if i < min(m, n) else 0
        if d != 0:
            if y[i] % d != 0:
                return None
            z[i] = y[i] // d
        elif y[i] != 0:
            return None
    x = mat_vec(v, tuple(z))
    if mat_vec(a, x) != tuple(b):
        return None
    return x

