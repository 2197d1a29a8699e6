"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction` (the stdlib type already maintains the
reduced-form invariants we need).  Matrices are sparse maps (row, col) ->
coefficient, eliminated by the one sparse kernel `backend.rref_sparse`;
subspaces store canonical reduced-echelon bases so that equality of
subspaces is equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from walg import backend
from walg.errors import AmbientMismatch

QQ = Fraction
Vector = Tuple[QQ, ...]


def vec(entries: Iterable, dim: Optional[int] = None) -> Vector:
    """Coerce an iterable of numbers / "p/q" strings to a Fraction tuple."""
    out = tuple(QQ(x) for x in entries)
    if dim is not None and len(out) != dim:
        raise AmbientMismatch(f"expected length {dim}, got {len(out)}")
    return out


def zero_vec(dim: int) -> Vector:
    return (QQ(0),) * dim


def unit_vec(dim: int, k: int) -> Vector:
    return tuple(QQ(1) if i == k else QQ(0) for i in range(dim))


def add_vec(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))

def scale_vec(c, v: Vector) -> Vector:
    c = QQ(c)
    return tuple(c * a for a in v)

def dot(u: Vector, v: Vector) -> QQ:
    return sum((a * b for a, b in zip(u, v)), QQ(0))

def is_zero_vec(v: Vector) -> bool:
    return not any(v)


class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) to nonzero Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], QQ]):
        self.rows = rows
        self.cols = cols
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) out of bounds {rows}x{cols}")
            v = QQ(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "SparseMatrix":
        nrows = len(rows)
        ncols = cols if cols is not None else (len(rows[0]) if nrows else 0)
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = QQ(v)
        return cls(nrows, ncols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "SparseMatrix":
        ncols = len(columns)
        nrows = rows if rows is not None else (len(columns[0]) if ncols else 0)
        entries = {}
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    entries[(i, j)] = QQ(v)
        return cls(nrows, ncols, entries)

    def row_dicts(self) -> List[Dict[int, QQ]]:
        out: List[Dict[int, QQ]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def apply(self, x: Sequence) -> Vector:
        """Matrix-vector product Mx."""
        if len(x) != self.cols:
            raise AmbientMismatch("vector length != cols")
        out = [QQ(0)] * self.rows
        for (r, c), v in self.entries.items():
            xc = x[c]
            if xc:
                out[r] += v * xc
        return tuple(out)

    def stack(self, other: "SparseMatrix") -> "SparseMatrix":
        """Vertical stack; column counts must agree."""
        if self.cols != other.cols:
            raise AmbientMismatch("column mismatch in stack")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r + self.rows, c)] = v
        return SparseMatrix(self.rows + other.rows, self.cols, entries)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


class Subspace:
    """Subspace of QQ^n held by its canonical reduced-echelon basis.

    Two Subspace values are equal as sets iff their stored bases are
    identical tuples, so == is a genuine subspace-equality test.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        self._span(ambient_dim, [{j: c for j, c in enumerate(vec(v, ambient_dim)) if c}
                                 for v in vectors])

    @classmethod
    def from_sparse(cls, ambient_dim: int, rows: Iterable[Dict[int, QQ]]) -> "Subspace":
        """The span of sparse rows, dicts column -> Fraction; empty rows are
        dropped, and a column outside 0..ambient_dim-1 raises AmbientMismatch."""
        rows = [r for r in rows if r]
        for r in rows:
            if min(r) < 0 or max(r) >= ambient_dim:
                raise AmbientMismatch(f"a row has a column outside 0..{ambient_dim - 1}")
        space = cls.__new__(cls)
        space._span(ambient_dim, rows)
        return space

    def _span(self, ambient_dim: int, rows: List[Dict[int, QQ]]):
        pivots, reduced = backend.rref_sparse(rows, ambient_dim)
        basis = []
        for r in reduced:
            row = [QQ(0)] * ambient_dim
            for j, c in r.items():
                row[j] = c
            basis.append(tuple(row))
        self.ambient_dim = ambient_dim
        self.basis = tuple(basis)
        self._pivots = tuple(pivots)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Sequence) -> Optional[Vector]:
        """Coefficients of v on the stored basis, or None if outside."""
        v = list(vec(v, self.ambient_dim))
        coords = []
        for row, p in zip(self.basis, self._pivots):
            c = v[p]
            coords.append(c)
            if c:
                for j in range(self.ambient_dim):
                    v[j] -= c * row[j]
        if any(v):
            return None
        return tuple(coords)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def rank(M: SparseMatrix) -> int:
    pivots, _ = backend.rref_sparse(M.row_dicts(), M.cols)
    return len(pivots)


def kernel(M: SparseMatrix) -> Subspace:
    """Exact null space; dim = cols - rank."""
    return prefix_kernels(M, [M.cols])[0]


def prefix_kernels(M: SparseMatrix, prefixes: Sequence[int]) -> List[Subspace]:
    """Null space of M restricted to its first c columns, for each c in prefixes.

    One elimination serves every prefix: the kernel vector of a free
    column f is supported on columns <= f, since a pivot row reaches f
    only from a pivot left of it, so those with f < c span the kernel of
    the first c columns.
    """
    for c in prefixes:
        if not 0 <= c <= M.cols:
            raise AmbientMismatch(f"column prefix {c} outside 0..{M.cols}")
    top = max(prefixes, default=0)
    pivots, rows = backend.rref_sparse(M.row_dicts(), M.cols)
    pivot_set = set(pivots)
    free = {f: {f: QQ(1)} for f in range(top) if f not in pivot_set}
    for p, row in zip(pivots, rows):
        for f, c in row.items():
            v = free.get(f)
            if v is not None:
                v[p] = -c
    return [Subspace.from_sparse(c, [v for f, v in free.items() if f < c])
            for c in prefixes]


def solve(M: SparseMatrix, b: Sequence) -> Optional[Vector]:
    """Some x with Mx = b, or None if the system is inconsistent.

    The particular solution sets all free variables to zero; the result is
    verified by substitution before it is returned.
    """
    b = vec(b, M.rows)
    aug = M.row_dicts()
    for i, bv in enumerate(b):
        if bv:
            aug[i][M.cols] = bv
    pivots, rows = backend.rref_sparse(aug, M.cols + 1)
    if M.cols in pivots:
        return None
    x = [QQ(0)] * M.cols
    for p, row in zip(pivots, rows):
        x[p] = row.get(M.cols, QQ(0))
    x = tuple(x)
    if M.apply(x) != b:
        raise AssertionError("solve produced an invalid solution")
    return x


def sum_and_intersection(U: Subspace, V: Subspace) -> Tuple[Subspace, Subspace]:
    """(U + V, U `intersect` V); dims satisfy the modular law."""
    if U.ambient_dim != V.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    n = U.ambient_dim
    total = Subspace(n, list(U.basis) + list(V.basis))
    # x in both spans: B_U^T a = B_V^T b; kernel of [B_U^T | -B_V^T]
    du, dv = U.dim, V.dim
    entries = {}
    for k, row in enumerate(U.basis):
        for j, c in enumerate(row):
            if c:
                entries[(j, k)] = c
    for k, row in enumerate(V.basis):
        for j, c in enumerate(row):
            if c:
                entries[(j, du + k)] = -c
    M = SparseMatrix(n, du + dv, entries)
    meet_vectors = []
    for w in kernel(M).basis:
        x = [QQ(0)] * n
        for k in range(du):
            if w[k]:
                for j in range(n):
                    x[j] += w[k] * U.basis[k][j]
        meet_vectors.append(x)
    meet = Subspace(n, meet_vectors)
    if total.dim + meet.dim != U.dim + V.dim:
        raise AssertionError("dimension law violated in sum_and_intersection")
    return total, meet
