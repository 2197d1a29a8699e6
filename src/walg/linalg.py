"""Exact sparse linear algebra over the rationals.

Scalars are `fractions.Fraction` (the stdlib type already maintains the
reduced-form invariants we need).  Matrices are sparse maps (row, col) ->
coefficient, eliminated by the one sparse kernel `backend.rref_sparse`;
a `Subspace` stores its canonical reduced-echelon basis, so that equality
of subspaces is equality of representations.  Canonical bases are built
only where the basis itself is used; a question about spans alone (a sum,
an intersection, an equality of two spans) is a `rank`, or a read-off on
an echelon at hand.  `kernel_vectors` gives a joint null space as one
vector per free column, supported on the columns up to it, so the null
space of every column prefix is a truncation of one elimination; `kernel`
makes them a canonical `Subspace`, and the kernel of stacked matrices is
the intersection of their kernels.

`SparseMatrix` is the one matrix type: besides `apply` (M x) and `stack`
it has the product `A @ B`, the scalar shift `shift(c)` (M + c I),
`inverse()` (one elimination of [M | I], None when M is singular) and
`nilpotent_powers()` (M, M^2, ... up to the last nonzero power, None when
M^n != 0 for n x n M).
`Echelon` grows a reduced echelon one vector at a time, on integer
numerators, and reads exact coordinates off it: every span decision made
vector by vector (an adapted PBW basis, the generators of n_ell, the
generators of H and the monomials in them, the H representatives and the
natural maps between the H_ell) extends one, and whether a vector lies in
a span held by one (a Whittaker vector in H) is a read-off.  No other
module multiplies, inverts or eliminates matrices or vectors by hand.
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


def exact(c):
    """The rational c as an int when it is a whole number."""
    return c.numerator if c.denominator == 1 else c


def scale_vec(c, v: Vector) -> Vector:
    c = QQ(c)
    return tuple(c * a for a in v)


class SparseMatrix:
    """Immutable sparse matrix; entries maps (row, col) to a nonzero exact
    rational: a Fraction, or an int where `_of` was handed one."""

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
    def _of(cls, rows: int, cols: int, entries: Dict[Tuple[int, int], QQ]) -> "SparseMatrix":
        """A matrix on trusted entries: every key in bounds, every value a
        nonzero exact rational (an int or a Fraction), taken as they are."""
        M = cls.__new__(cls)
        M.rows, M.cols, M.entries = rows, cols, entries
        return M

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

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        """The matrix product; the inner dimensions must agree."""
        if self.cols != other.rows:
            raise AmbientMismatch(f"product of {self.rows}x{self.cols} and "
                                  f"{other.rows}x{other.cols}")
        right: Dict[int, List[Tuple[int, QQ]]] = {}
        for (k, c), b in other.entries.items():
            right.setdefault(k, []).append((c, b))
        out: Dict[Tuple[int, int], QQ] = {}
        for (r, k), a in self.entries.items():
            for c, b in right.get(k, ()):
                key = (r, c)
                s = out.get(key, 0) + a * b
                if s:
                    out[key] = s
                else:
                    del out[key]
        return SparseMatrix._of(self.rows, other.cols, out)

    def _require_square(self, what: str):
        if self.rows != self.cols:
            raise AmbientMismatch(f"{what} of a non-square {self.rows}x{self.cols} matrix")

    def shift(self, c) -> "SparseMatrix":
        """M + c I for square M."""
        self._require_square("shift")
        c = QQ(c)
        out = dict(self.entries)
        if c:
            for r in range(self.rows):
                s = out.get((r, r), 0) + c
                if s:
                    out[(r, r)] = s
                else:
                    del out[(r, r)]
        return SparseMatrix._of(self.rows, self.cols, out)

    def inverse(self) -> Optional["SparseMatrix"]:
        """M^-1 for square M by one elimination of [M | I], or None if M is
        singular."""
        self._require_square("inverse")
        n = self.rows
        aug = self.row_dicts()
        for r in range(n):
            aug[r][n + r] = QQ(1)
        pivots, rows = backend.rref_sparse(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            return None
        return SparseMatrix._of(n, n, {(r, c - n): v for r, row in enumerate(rows)
                                       for c, v in row.items() if c >= n})

    def nilpotent_powers(self) -> Optional[List["SparseMatrix"]]:
        """[M, M^2, ..., M^k] with M^(k+1) = 0 for nilpotent square M, or None
        if M is not nilpotent: an n x n nilpotent matrix has M^n = 0."""
        self._require_square("nilpotent powers")
        powers: List[SparseMatrix] = []
        cur = self
        while cur.entries:
            if len(powers) + 1 == self.rows:
                return None
            powers.append(cur)
            cur = cur @ self
        return powers

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


class Echelon:
    """Reduced echelon of a growing list of linearly independent sparse
    vectors, on integer numerators: the one incremental elimination.

    Each row is (pivot, row, comb), two int dicts over one shared
    denominator, the row's own pivot entry row[pivot] > 0: the vector
    row / row[pivot] has a unit entry at its pivot and a zero at every other
    row's pivot, and it equals the combination comb / row[pivot]
    (index -> coefficient) of the added vectors.  Rows change only by the
    fraction-free step `_eliminate`, which keeps row and comb jointly
    primitive.  A new row takes the top column of its residual as pivot, so
    every row's support ends at its pivot.  A vector in the span is the sum
    of the rows scaled by its own entries at their pivots, so reading its
    coordinates needs no elimination; only that read-off leaves the
    integers.
    """

    __slots__ = ("rows", "added")

    def __init__(self):
        self.rows: List[tuple] = []
        self.added: List[tuple] = []      # `int_form` of each added vector

    def reduce(self, w):
        """(residual, combination) of the sparse rational vector w, as int
        dicts.

        The residual is zero at every pivot and empty iff w lies in the
        span; it is the combination of the added vectors and of w itself
        (index `len(added)`, with a positive coefficient).
        """
        return self._reduce(backend.int_form(w))

    def _reduce(self, form):
        den, residual = form
        comb = {len(self.added): den}
        for p, row, comb_r in self.rows:
            if p in residual:
                residual, comb = _eliminate(residual, comb, row, comb_r, p)
        return residual, comb

    def extend(self, w) -> bool:
        """Add w unless it lies in the span already; whether it was added."""
        form = backend.int_form(w)
        row, comb = self._reduce(form)
        if not row:
            return False
        p = max(row)
        if row[p] < 0:
            row = {j: -v for j, v in row.items()}
            comb = {k: -v for k, v in comb.items()}
        rows = self.rows
        for i, (q, row_s, comb_s) in enumerate(rows):
            if p in row_s:
                rows[i] = (q,) + _eliminate(row_s, comb_s, row, comb, p)
        rows.append((p, row, comb))
        self.added.append(form)
        return True

    def coordinates(self, w: Dict[int, QQ]) -> Optional[Dict[int, QQ]]:
        """Coefficients x of w on the added vectors, as a sparse row
        (ascending indices, no zero value), or None if w is outside their
        span.  x is read off at the pivots and returned only after
        sum x_k added_k == w is verified by substitution."""
        scale, xs = backend.combine([(w[p], (row[p], comb))
                                     for p, row, comb in self.rows if p in w])
        # the substitution runs on the numerators xs, over the scale
        total, ints = backend.combine([(v, self.added[k])
                                       for k, v in xs.items() if v])
        if _equals((total * scale, ints), w):
            return {k: QQ(v, scale) for k, v in sorted(xs.items()) if v}
        if self.reduce(w)[0]:
            return None
        raise AssertionError("echelon read-off produced invalid coordinates")


def _eliminate(row: Dict, comb: Dict, prow: Dict, pcomb: Dict, col: int):
    """(row, comb) with col cleared by the pivot row (prow, pcomb):
    p*(row, comb) - a*(prow, pcomb) for p = prow[col] > 0, a = row[col],
    divided by the gcd of all its entries."""
    p, a = prow[col], row[col]
    row = backend.lincomb(p, row, a, prow)
    comb = backend.lincomb(p, comb, a, pcomb)
    backend._normalize(row, comb)
    return row, comb


def _equals(combined, w: Dict) -> bool:
    """Whether ints / scale, for (scale, ints) = combined as `backend.combine`
    gives it, is the sparse rational vector w; compared by
    cross-multiplication."""
    scale, ints = combined
    ints = {j: v for j, v in ints.items() if v}
    return ints.keys() == w.keys() and all(
        ints[j] * c.denominator == c.numerator * scale for j, c in w.items())


class Subspace:
    """Subspace of QQ^n held by its canonical reduced-echelon rows.

    `rows` are sparse dicts column -> Fraction, each with a unit at its
    pivot (`pivots`, increasing) and a zero at every other row's pivot.
    They depend only on the subspace, so == is a genuine subspace-equality
    test.  `basis` gives the rows as dense tuples, built once on demand.
    """

    __slots__ = ("ambient_dim", "pivots", "rows", "_basis")

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
        self.ambient_dim = ambient_dim
        self.pivots = tuple(pivots)
        self.rows = tuple(reduced)
        self._basis = None

    @property
    def basis(self) -> Tuple[Vector, ...]:
        if self._basis is None:
            zero = QQ(0)
            self._basis = tuple(tuple(r.get(j, zero) for j in range(self.ambient_dim))
                                for r in self.rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"expected length {self.ambient_dim}, got {len(v)}")
        w = {j: QQ(c) for j, c in enumerate(v) if c}
        # each row has a unit at its pivot and a zero at every other pivot
        for p, row in zip(self.pivots, self.rows):
            c = w.get(p)
            if c:
                for j, a in row.items():
                    s = w.get(j, 0) - c * a
                    if s:
                        w[j] = s
                    else:
                        del w[j]
        return not w

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def rank(M: SparseMatrix) -> int:
    """Rank of M, eliminated on its shorter side: with more rows than
    columns most rows reduce to zero, so the columns are eliminated
    instead."""
    if M.rows <= M.cols:
        return rank_of_rows(M.row_dicts(), M.cols)
    columns: List[Dict[int, QQ]] = [dict() for _ in range(M.cols)]
    for (r, c), v in M.entries.items():
        columns[c][r] = v
    return rank_of_rows(columns, M.rows)


def rank_of_rows(rows: Sequence[Dict[int, QQ]], ncols: int) -> int:
    """Rank of sparse rows, dicts column -> Fraction with columns < ncols;
    the elimination stops below the pivots."""
    pivots, _ = backend.rref_sparse(rows, ncols, reduce=False)
    return len(pivots)


def kernel(M: SparseMatrix) -> Subspace:
    """Exact null space; dim = cols - rank."""
    return Subspace.from_sparse(M.cols, kernel_vectors([M], M.cols).values())


def kernel_vectors(mats: Sequence[SparseMatrix],
                   ncols: int) -> Dict[int, Dict[int, QQ]]:
    """The joint null space of mats, each with ncols columns, as free column
    f -> its kernel vector, f ascending; with no mats, the unit vectors.

    One elimination of the stacked rows: the vector of f has a unit at f
    and the negated entries of the pivot rows in column f at their pivots,
    so it is supported on columns <= f, since a pivot row reaches f only
    from a pivot left of it.  So the vectors with f < c span the kernel of
    the first c columns, for every c: each prefix is a truncation.
    """
    rows = [r for M in mats for r in M.row_dicts()]
    pivots, reduced = backend.rref_sparse(rows, ncols)
    pivot_set = set(pivots)
    free = {f: {f: QQ(1)} for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, reduced):
        for f, c in row.items():
            v = free.get(f)
            if v is not None:
                v[p] = -c
    return free


def solve(M: SparseMatrix, b: Sequence) -> Optional[Vector]:
    """Some x with Mx = b, or None if the system is inconsistent.

    The particular solution sets all free variables to zero; the result is
    verified by substitution before it is returned.
    """
    return solve_columns(M, [b])[0]


def solve_columns(M: SparseMatrix, bs: Sequence[Sequence]) -> List[Optional[Vector]]:
    """`solve(M, b)` for each b in bs, by one elimination of M augmented by
    all of them.

    The rows of the reduced echelon form with a pivot past M's columns are
    those with a zero M-part; they span the values nu . [M | B] for nu in
    the left kernel of M, so b_k is consistent iff none of them has an
    entry in its column.  Clearing such a column from the other rows then
    changes no consistent column, so each x is the one `solve` would give
    for its b alone.
    """
    bs = [vec(b, M.rows) for b in bs]
    aug = M.row_dicts()
    for k, b in enumerate(bs):
        for i, bv in enumerate(b):
            if bv:
                aug[i][M.cols + k] = bv
    pivots, rows = backend.rref_sparse(aug, M.cols + len(bs))
    inconsistent = {j for p, row in zip(pivots, rows) if p >= M.cols for j in row}
    out: List[Optional[Vector]] = []
    for k, b in enumerate(bs):
        col = M.cols + k
        if col in inconsistent:
            out.append(None)
            continue
        x = [QQ(0)] * M.cols
        for p, row in zip(pivots, rows):
            if p < M.cols:
                x[p] = row.get(col, QQ(0))
        x = tuple(x)
        if M.apply(x) != b:
            raise AssertionError("solve produced an invalid solution")
        out.append(x)
    return out
