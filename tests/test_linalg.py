"""Exact linear algebra: kernels, solving, canonical subspaces."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walg import backend
from walg.errors import AmbientMismatch
from walg.linalg import (SparseMatrix, Subspace, kernel, kernel_vectors, rank,
                         rank_of_rows, solve, solve_columns)

from conftest import sl2_algebra
from reference import unit_vec


def test_kernel_zero_map():
    M = SparseMatrix(1, 1, {})
    K = kernel(M)
    assert K.dim == 1
    assert K.basis == ((F(1),),)


def test_kernel_identity():
    M = SparseMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert kernel(M).dim == 0


def test_kernel_rank_one():
    M = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    K = kernel(M)
    assert rank(M) == 1
    assert K.dim == 2
    for v in K.basis:
        assert all(c == 0 for c in M.apply(v))


def test_solve_identity():
    M = SparseMatrix.from_rows([[1, 0], [0, 1]])
    assert solve(M, [F(3), F(-5, 7)]) == (F(3), F(-5, 7))


def test_solve_underdetermined():
    M = SparseMatrix.from_rows([[1, 1]])
    x = solve(M, [2])
    assert x is not None
    assert x[0] + x[1] == 2


def test_solve_inconsistent():
    M = SparseMatrix.from_rows([[1], [1]])
    assert solve(M, [1, 2]) is None


def test_rank_examples():
    assert rank(SparseMatrix(3, 4, {})) == 0
    assert rank(SparseMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(SparseMatrix.from_rows([[1, 2], [2, 4]])) == 1


def sum_dim_and_meet(P, R):
    """For U = Ker P and V = Ker R: (dim (U + V), one rank of their
    canonical rows; U intersected with V, the kernel of P stacked on R)."""
    meet = kernel(P.stack(R))
    return rank_of_rows(kernel(P).rows + kernel(R).rows, P.cols), meet


def test_sum_intersection_equal_spaces():
    P = SparseMatrix.from_rows([[1, -1, 0]])
    U = kernel(P)
    assert U == Subspace(3, [[1, 1, 0], [0, 0, 1]])
    S, T = sum_dim_and_meet(P, P)
    assert S == U.dim and T == U


def test_sum_intersection_complementary_lines():
    U = SparseMatrix.from_rows([[0, 1]])   # the line of [1, 0]
    V = SparseMatrix.from_rows([[1, 0]])   # the line of [0, 1]
    S, T = sum_dim_and_meet(U, V)
    assert S == 2 and T.dim == 0


def test_sum_intersection_two_planes():
    U = SparseMatrix.from_rows([[0, 0, 1]])   # [1, 0, 0] and [0, 1, 0]
    V = SparseMatrix.from_rows([[1, 0, 0]])   # [0, 1, 0] and [0, 0, 1]
    S, T = sum_dim_and_meet(U, V)
    assert S == 3 and T.dim == 1
    assert T.contains([0, 1, 0])


def test_sum_intersection_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        sum_dim_and_meet(SparseMatrix.from_rows([[1, 0]]),
                         SparseMatrix.from_rows([[1, 0, 0]]))


def test_subspace_equality_is_canonical():
    A = Subspace(3, [[1, 1, 0], [0, 1, 1]])
    B = Subspace(3, [[1, 0, -1], [2, 1, -1]])
    assert A == B
    assert A.basis == B.basis


def test_result_independent_of_row_order():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[F(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
        M1 = SparseMatrix.from_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        M2 = SparseMatrix.from_rows(shuffled)
        assert kernel(M1) == kernel(M2)
        assert rank(M1) == rank(M2)


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_kernel_properties(nrows, ncols, data):
    """M k = 0 exactly on kernel basis vectors, and dim K + rank = cols."""
    rows = [[data.draw(small_fraction) for _ in range(ncols)]
            for _ in range(nrows)]
    M = SparseMatrix.from_rows(rows)
    K = kernel(M)
    assert K.dim + rank(M) == ncols
    for v in K.basis:
        assert all(c == 0 for c in M.apply(v))


def first_columns(M, c):
    return SparseMatrix(M.rows, c, {(r, j): v for (r, j), v in M.entries.items()
                                    if j < c})


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.data())
def test_kernel_vectors_truncate_to_kernel_of_first_columns(nrows, ncols, data):
    """One elimination of the stacked rows gives the kernel of each column
    prefix: the vectors of the free columns f < c span the kernel of the
    first c columns, and the vector of f has a unit at f and none past it."""
    entry = st.one_of(st.just(F(0)), small_fraction)
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    M = SparseMatrix.from_rows(rows)
    split = data.draw(st.integers(0, nrows))
    mats = [SparseMatrix.from_rows(part, cols=ncols)
            for part in (rows[:split], rows[split:])]
    vectors = kernel_vectors(mats, ncols)
    for f, v in vectors.items():
        assert v[f] == 1 and max(v) == f
    for c in range(ncols + 1):
        assert Subspace.from_sparse(c, [v for f, v in vectors.items() if f < c]) \
            == kernel(first_columns(M, c))
    assert kernel_vectors([], ncols) == {f: {f: 1} for f in range(ncols)}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_solve_verified_or_inconsistent(n, data):
    rows = [[data.draw(small_fraction) for _ in range(n)] for _ in range(n)]
    b = [data.draw(small_fraction) for _ in range(n)]
    M = SparseMatrix.from_rows(rows)
    x = solve(M, b)
    if x is not None:
        assert M.apply(x) == tuple(b)
    else:
        aug = SparseMatrix.from_rows([list(r) + [bv] for r, bv in zip(rows, b)])
        assert rank(aug) == rank(M) + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_modular_dimension_law(n, data):
    """The intersection as a stacked kernel and the sum's dimension as a
    rank obey the modular law."""
    rows1 = [[data.draw(small_fraction) for _ in range(n)] for _ in range(2)]
    rows2 = [[data.draw(small_fraction) for _ in range(n)] for _ in range(2)]
    P, R = SparseMatrix.from_rows(rows1), SparseMatrix.from_rows(rows2)
    U, V = kernel(P), kernel(R)
    S, T = sum_dim_and_meet(P, R)
    assert S + T.dim == U.dim + V.dim
    total = Subspace.from_sparse(n, U.rows + V.rows)
    assert total.dim == S
    assert total.contains_subspace(U) and total.contains_subspace(V)
    assert U.contains_subspace(T) and V.contains_subspace(T)


def gauss_jordan(rows, ncols):
    """Reference reduced echelon form by plain Fraction Gauss-Jordan
    elimination: (pivot columns, unit-pivot rows as dicts)."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        i = next((i for i in range(k, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[k], m[i] = m[i], m[k]
        m[k] = [v / m[k][col] for v in m[k]]
        for i2 in range(len(m)):
            c = m[i2][col]
            if i2 != k and c:
                m[i2] = [a - c * b for a, b in zip(m[i2], m[k])]
        pivots.append(col)
    return pivots, [{j: v for j, v in enumerate(m[k]) if v} for k in range(len(pivots))]


def sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


@st.composite
def bucket_matrices(draw):
    """(dense rows, ncols) that stress the leading-column buckets.

    Base rows optionally share one leading column; the other rows are small
    integer combinations of them, so inputs are tall and rank-deficient, with
    many rows in one bucket, duplicate and zero rows, and rows that reduce to
    zero.  Few rows over many columns, or none at all, give wide and empty
    inputs.
    """
    ncols = draw(st.integers(0, 8))
    lead = draw(st.integers(0, max(ncols - 1, 0)))
    entry = st.one_of(st.just(F(0)), small_fraction)
    base = []
    for _ in range(draw(st.integers(0, 4))):
        r = [draw(entry) for _ in range(ncols)]
        if ncols and draw(st.booleans()):
            r[:lead + 1] = [F(0)] * lead + [draw(small_fraction.filter(bool))]
        base.append(r)
    rows = list(base)
    for _ in range(draw(st.integers(0, 10))):
        coeffs = [draw(st.integers(-2, 2)) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), F(0))
                     for j in range(ncols)])
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ncols


@settings(max_examples=150, deadline=None)
@given(bucket_matrices())
def test_rref_sparse_matches_gauss_jordan(matrix):
    """The bucketed kernel gives the reduced echelon form of plain
    Gauss-Jordan elimination."""
    rows, ncols = matrix
    assert backend.rref_sparse(sparse(rows), ncols) == gauss_jordan(rows, ncols)


@settings(max_examples=150, deadline=None)
@given(bucket_matrices(), st.booleans())
def test_rank_on_the_short_side_matches_the_row_route(matrix, transpose):
    """`rank` eliminates the columns of a tall matrix; on tall, wide,
    rank-deficient and empty matrices it equals the rank of the rows."""
    rows, ncols = matrix
    M = SparseMatrix.from_rows(rows, ncols)
    if transpose:
        M = SparseMatrix(M.cols, M.rows,
                         {(c, r): v for (r, c), v in M.entries.items()})
    assert rank(M) == rank_of_rows(M.row_dicts(), M.cols) == \
        len(gauss_jordan(rows, ncols)[0])


def test_rank_on_the_short_side_examples():
    assert rank(SparseMatrix(5, 0, {})) == rank(SparseMatrix(0, 5, {})) == 0
    assert rank(SparseMatrix(6, 2, {})) == 0
    assert rank(SparseMatrix.from_rows([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(SparseMatrix.from_rows([[1, 0], [0, 1], [1, 1], [2, 3]])) == 2


@settings(max_examples=40, deadline=None)
@given(bucket_matrices())
def test_rref_dense_adapter_matches_sparse(matrix):
    rows, ncols = matrix
    assert backend.rref_dense(rows, ncols) == backend.rref_sparse(sparse(rows), ncols)


def test_from_sparse_rejects_column_outside_ambient():
    with pytest.raises(AmbientMismatch):
        Subspace.from_sparse(3, [{0: F(1)}, {3: F(1)}])
    with pytest.raises(AmbientMismatch):
        Subspace.from_sparse(3, [{-1: F(1)}])


def test_from_sparse_drops_empty_rows():
    assert Subspace.from_sparse(3, [{}, {1: F(2)}, {}]) == Subspace(3, [[0, 1, 0]])
    assert Subspace.from_sparse(2, [{}]).dim == 0
    assert Subspace.from_sparse(0, []) == Subspace(0, [])


@settings(max_examples=60, deadline=None)
@given(bucket_matrices())
def test_from_sparse_matches_dense_constructor(matrix):
    rows, ncols = matrix
    assert Subspace.from_sparse(ncols, sparse(rows)) == Subspace(ncols, rows)


# -- matrix operations against plain dense Fraction arithmetic ---------------


def dense_mul(A, B, inner, ncols):
    """Reference product of dense row lists with the given inner and outer
    column counts."""
    return [[sum((a[k] * B[k][c] for k in range(inner)), F(0)) for c in range(ncols)]
            for a in A]


def dense_identity(n):
    return [[F(int(r == c)) for c in range(n)] for r in range(n)]


def dense_matrix(data, nrows, ncols):
    entry = st.one_of(st.just(F(0)), small_fraction)
    return [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_product_matches_dense_reference(n, k, m, data):
    A, B = dense_matrix(data, n, k), dense_matrix(data, k, m)
    got = SparseMatrix.from_rows(A, cols=k) @ SparseMatrix.from_rows(B, cols=m)
    assert (got.rows, got.cols) == (n, m)
    assert got == SparseMatrix.from_rows(dense_mul(A, B, k, m), cols=m)


def test_product_rejects_mismatched_inner_dimensions():
    with pytest.raises(AmbientMismatch):
        SparseMatrix(2, 3, {}) @ SparseMatrix(2, 2, {})
    with pytest.raises(AmbientMismatch):
        SparseMatrix.from_rows([[1, 2]]) @ SparseMatrix.from_rows([[1, 2]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), small_fraction, st.data())
def test_shift_matches_dense_reference(n, c, data):
    M = dense_matrix(data, n, n)
    shifted = [[v + (c if r == j else 0) for j, v in enumerate(row)]
               for r, row in enumerate(M)]
    assert SparseMatrix.from_rows(M, cols=n).shift(c) == \
        SparseMatrix.from_rows(shifted, cols=n)


def test_shift_cancels_diagonal_and_rejects_non_square():
    M = SparseMatrix.from_rows([[2, 1], [0, 2]])
    assert M.shift(-2).entries == {(0, 1): F(1)}
    with pytest.raises(AmbientMismatch):
        SparseMatrix(2, 3, {}).shift(1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_inverse_is_two_sided_or_none_when_singular(n, singular, data):
    rows = dense_matrix(data, n, n)
    if singular:
        # the last row a combination of the others: rank below n
        coeffs = [data.draw(st.integers(-2, 2)) for _ in range(n - 1)]
        rows[-1] = [sum((a * r[j] for a, r in zip(coeffs, rows)), F(0))
                    for j in range(n)]
    M = SparseMatrix.from_rows(rows, cols=n)
    inv = M.inverse()
    if inv is None:
        assert rank(M) < n
    else:
        ident = SparseMatrix.from_rows(dense_identity(n))
        assert M @ inv == ident and inv @ M == ident
    if singular:
        assert inv is None


def test_inverse_examples():
    assert SparseMatrix.from_rows([[1, 2], [2, 4]]).inverse() is None
    assert SparseMatrix.from_rows([[2, 1], [1, 1]]).inverse() == \
        SparseMatrix.from_rows([[1, -1], [-1, 2]])
    assert SparseMatrix(0, 0, {}).inverse() == SparseMatrix(0, 0, {})
    with pytest.raises(AmbientMismatch):
        SparseMatrix(1, 2, {}).inverse()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_strictly_triangular_powers_and_index(n, data):
    """A strictly upper triangular matrix is nilpotent; its powers are those
    of the dense reference up to the last nonzero one."""
    entry = st.one_of(st.just(F(0)), small_fraction)
    rows = [[data.draw(entry) if j > r else F(0) for j in range(n)]
            for r in range(n)]
    expected, cur = [], rows
    while any(any(row) for row in cur):
        expected.append(SparseMatrix.from_rows(cur, cols=n))
        cur = dense_mul(cur, rows, n, n)
    assert len(expected) < n
    assert SparseMatrix.from_rows(rows, cols=n).nilpotent_powers() == expected


def test_nilpotent_index_of_a_jordan_block():
    J = SparseMatrix(4, 4, {(0, 1): F(1), (1, 2): F(1), (2, 3): F(1)})
    powers = J.nilpotent_powers()
    assert len(powers) == 3  # J^4 = 0, J^3 != 0
    assert powers[-1].entries == {(0, 3): F(1)}
    assert SparseMatrix(3, 3, {}).nilpotent_powers() == []


def test_ad_h_on_sl2_is_not_nilpotent():
    L = sl2_algebra()
    assert L.ad_sparse(unit_vec(3, 1)).nilpotent_powers() is None
    assert len(L.ad_sparse(unit_vec(3, 0)).nilpotent_powers()) == 2
    with pytest.raises(AmbientMismatch):
        SparseMatrix(2, 3, {}).nilpotent_powers()


@settings(max_examples=60, deadline=None)
@given(bucket_matrices(), st.integers(1, 4), st.data())
def test_solve_columns_matches_one_solve_per_column(matrix, k, data):
    """One elimination for several right-hand sides gives, column by column,
    what `solve` gives for each alone: among them consistent ones (images
    of M) and, on rank-deficient M, inconsistent ones."""
    rows, ncols = matrix
    M = SparseMatrix.from_rows(rows) if rows and ncols else SparseMatrix(
        len(rows), ncols, {})
    bs = []
    for _ in range(k):
        if data.draw(st.booleans()):
            x = [data.draw(small_fraction) for _ in range(ncols)]
            bs.append(M.apply(x))
        else:
            bs.append(tuple(data.draw(small_fraction) for _ in range(M.rows)))
    assert solve_columns(M, bs) == [solve(M, b) for b in bs]


def test_solve_columns_examples():
    M = SparseMatrix.from_rows([[1, 1], [2, 2]])
    assert solve_columns(M, [[1, 2], [1, 0], [0, 0], [3, 6]]) == [
        (F(1), F(0)), None, (F(0), F(0)), (F(3), F(0))]
    assert solve_columns(M, []) == []
