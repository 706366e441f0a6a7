import random

import hypothesis
import hypothesis.strategies as st
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from gluekit import intlinalg as il


# --- exact helpers the tests read; the pipeline never runs them

def det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m, n = il.shape(a)
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    M = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def is_unimodular(a):
    m, n = il.shape(a)
    return m == n and det(a) in (1, -1)


def int_inverse(a):
    """Exact inverse of a unimodular integer matrix, else None."""
    m, n = il.shape(a)
    if m != n:
        return None
    cols = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        x = il.solve(a, e)
        if x is None:
            return None
        cols.append(x)
    inv = il.from_columns(cols, n)
    if il.mat_mul(a, inv) != il.identity(n):
        return None
    return inv


def oracle_snf_diagonal(a):
    """Independent row/column reduction oracle via sympy."""
    m = sympy.Matrix([list(r) for r in a])
    s = smith_normal_form(m)
    out = []
    for i in range(min(s.rows, s.cols)):
        d = abs(int(s[i, i]))
        if d:
            out.append(d)
    return tuple(out)


def random_matrix(rng, max_size=6, bound=9):
    m, n = rng.randint(1, max_size), rng.randint(1, max_size)
    return il.freeze([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def check_snf_contract(a):
    u, s, v = il.snf(a)
    m, n = il.shape(a)
    assert il.mat_mul(il.mat_mul(u, a), v) == s
    assert is_unimodular(u)
    assert is_unimodular(v)
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    for i in range(m):
        for j in range(n):
            if i != j:
                assert s[i][j] == 0


def test_snf_diag_2_3():
    a = il.freeze([[2, 0], [0, 3]])
    check_snf_contract(a)
    _, s, _ = il.snf(a)
    assert (s[0][0], s[1][1]) == (1, 6)
    assert oracle_snf_diagonal(a) == (1, 6)


def test_snf_zero_and_identity():
    z = il.freeze([[0, 0], [0, 0]])
    u, s, v = il.snf(z)
    assert s == z and u == il.identity(2) and v == il.identity(2)
    i3 = il.identity(3)
    _, s, _ = il.snf(i3)
    assert s == i3


def test_snf_random_matches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        a = random_matrix(rng, max_size=5)
        check_snf_contract(a)
        assert il.snf_diagonal(a) == oracle_snf_diagonal(a)


@hypothesis.given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_contract_property(rows):
    check_snf_contract(il.freeze(rows))


def test_kernel_basis_spans_kernel():
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(rng, max_size=4, bound=4)
        basis = il.kernel_basis(a)
        m, n = il.shape(a)
        for vec in basis:
            assert il.mat_vec(a, vec) == (0,) * m
        # the count matches the rank-nullity bookkeeping
        assert len(basis) == n - il.rank(a)


def test_solve_verified_by_substitution():
    rng = random.Random(5)
    solved = 0
    for _ in range(80):
        a = random_matrix(rng, max_size=4, bound=4)
        m, n = il.shape(a)
        x0 = tuple(rng.randint(-3, 3) for _ in range(n))
        b = il.mat_vec(a, x0)
        x = il.solve(a, b)
        assert x is not None
        assert il.mat_vec(a, x) == b
        solved += 1
    assert solved == 80


def test_solve_detects_unsolvable():
    a = il.freeze([[2]])
    assert il.solve(a, (4,)) == (2,)
    assert il.solve(a, (3,)) is None


def test_det_matches_sympy():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = il.freeze([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        assert det(a) == int(sympy.Matrix([list(r) for r in a]).det())


def test_int_inverse():
    a = il.freeze([[1, 2], [0, 1]])
    inv = int_inverse(a)
    assert inv is not None
    assert il.mat_mul(a, inv) == il.identity(2)
    assert int_inverse(il.freeze([[2, 0], [0, 1]])) is None


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        il.mat_mul(il.identity(2), il.identity(3))
