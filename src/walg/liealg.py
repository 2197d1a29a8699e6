"""Lie algebras over Q by structure constants, sl2-triples, gradings.

Everything downstream (enveloping algebra, slice charts, reduction) hangs
off the data built here: the ad h eigenspace decomposition, the linear
functional chi dual to e, the skew form omega on the weight -1 space with
an isotropic subspace ell, the nilpotent subalgebra pair (a, n_ell), and
the centralizer Ker ad f.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from walg.errors import (ConfigError, DecompositionFailure,
                         DegenerateKillingForm, DegenerateOmega,
                         JacobiViolation, NonIntegerEigenvalue, NotInsideGm1,
                         NotIsotropic, NotNilpotent, NoTripleFound, WalgError)
from walg.linalg import (QQ, SparseMatrix, Subspace, Vector, exact, kernel,
                         rank, rank_of_rows, scale_vec, solve, vec)


class LieAlgebra:
    """Lie algebra with a fixed basis and exact structure constants.

    `table` maps basis pairs (i, j) with i < j to the sparse coordinate
    vector of [x_i, x_j], each constant an int when it is a whole number;
    `_brackets[i]` maps every j with [x_i, x_j] != 0 to that vector, for
    either order of i and j, and `_killing` holds the Killing form on the
    basis, an int where whole.  Construction verifies the Jacobi identity on
    all basis triples and nondegeneracy of the Killing form.
    """

    __slots__ = ("dim", "labels", "table", "_brackets", "_killing")

    def __init__(self, labels: Sequence[str],
                 table: Dict[Tuple[int, int], Dict[int, QQ]]):
        self.dim = len(labels)
        self.labels = tuple(labels)
        self.table: Dict[Tuple[int, int], Dict[int, QQ]] = {}
        self._brackets: List[Dict[int, Dict[int, QQ]]] = [{} for _ in labels]
        for (i, j), v in table.items():
            if not (0 <= i < j < self.dim):
                raise WalgError(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            for k in v:
                if not 0 <= k < self.dim:
                    raise WalgError(f"bracket ({i},{j}) has coordinate index {k} "
                                    f"outside 0..{self.dim - 1}")
            entry = {k: exact(QQ(c)) for k, c in v.items() if c}
            if entry:
                self.table[(i, j)] = self._brackets[i][j] = entry
                self._brackets[j][i] = {k: -c for k, c in entry.items()}
        self._check_jacobi()
        self._killing = self._killing_form()
        if rank(SparseMatrix.from_rows(self._killing)) != self.dim:
            raise DegenerateKillingForm(
                f"Killing form of '{','.join(labels)}' algebra is degenerate")

    # -- brackets -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> Dict[int, QQ]:
        """[x_i, x_j] as a sparse coordinate dict, any i, j."""
        return self._brackets[i].get(j, {})

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """[x, y] for coordinate vectors."""
        out = [QQ(0)] * self.dim
        ys = [(j, c) for j, c in enumerate(y) if c]
        for i, xi in enumerate(x):
            if xi:
                row = self._brackets[i]
                for j, yj in ys:
                    b = row.get(j)
                    if b:
                        coeff = xi * yj
                        for k, c in b.items():
                            out[k] += coeff * c
        return tuple(out)

    def ad_sparse(self, x: Sequence) -> SparseMatrix:
        """Matrix of ad x: column j is [x, x_j]."""
        entries: Dict[Tuple[int, int], QQ] = {}
        for i, xi in enumerate(x):
            if xi:
                for j, b in self._brackets[i].items():
                    for k, c in b.items():
                        entries[(k, j)] = entries.get((k, j), 0) + xi * c
        return SparseMatrix(self.dim, self.dim, entries)

    # -- Killing form -------------------------------------------------------

    def _killing_form(self) -> Tuple[Tuple[QQ, ...], ...]:
        """kappa(x_i, x_j) = trace(ad x_i ad x_j), the sum of
        [x_i, x_c]_r [x_j, x_r]_c over the nonzero products only."""
        into: Dict[Tuple[int, int], List[Tuple[int, QQ]]] = {}
        for j, row in enumerate(self._brackets):
            for r, b in row.items():
                for c, w in b.items():
                    into.setdefault((r, c), []).append((j, w))
        K = [[0] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(self._brackets):
            for c, b in row.items():
                for r, v in b.items():
                    for j, w in into.get((r, c), ()):
                        K[i][j] += v * w
        return tuple(tuple(exact(t) for t in row) for row in K)

    def killing(self, x: Sequence, y: Sequence) -> QQ:
        ys = [(j, exact(c)) for j, c in enumerate(y) if c]
        return QQ(sum(exact(xi) * sum(self._killing[i][j] * yj for j, yj in ys)
                      for i, xi in enumerate(x) if xi))

    # -- validation ---------------------------------------------------------

    def _check_jacobi(self):
        """JacobiViolation on the first basis triple i < j < k, in
        lexicographic order, with [[x_i,x_j],x_k] + [[x_j,x_k],x_i] +
        [[x_k,x_i],x_j] != 0.  Only a triple with a nonzero double bracket
        [[x_a,x_b],x_c] can fail, so the triples checked are read off the
        supports: a pair (a, b) of the table, m in the support of its
        bracket, and c with [x_m, x_c] != 0."""
        br = self._brackets
        triples = set()
        for (a, b), v in self.table.items():
            for m in v:
                for c in br[m]:
                    if c != a and c != b:
                        triples.add((c, a, b) if c < a else (a, c, b) if c < b
                                    else (a, b, c))
        for i, j, k in sorted(triples):
            acc: Dict[int, QQ] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, c1 in br[a].get(b, {}).items():
                    for t, c2 in br[m].get(c, {}).items():
                        acc[t] = acc.get(t, 0) + c1 * c2
            if any(acc.values()):
                raise JacobiViolation(
                    (self.labels[i], self.labels[j], self.labels[k]),
                    tuple(QQ(acc.get(t, 0)) for t in range(self.dim)))

    def label_of_vector(self, v: Sequence) -> Optional[str]:
        """Basis label if v is +/- a coordinate vector, else None."""
        nz = [(i, c) for i, c in enumerate(v) if c]
        if len(nz) == 1 and nz[0][1] in (QQ(1), QQ(-1)):
            i, c = nz[0]
            return self.labels[i] if c == 1 else "-" + self.labels[i]
        return None

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim})"


# ---------------------------------------------------------------------------
# sl_n and standard nilpotents
# ---------------------------------------------------------------------------


def sln_basis_matrices(n: int) -> Tuple[List[str], List[List[List[QQ]]]]:
    """Basis of traceless n x n matrices: E_ij (i<j), H_i, E_ij (i>j)."""
    if n < 2:
        raise WalgError("sl_n needs n >= 2")
    labels: List[str] = []
    mats: List[List[List[QQ]]] = []

    def emat(a, b):
        M = [[QQ(0)] * n for _ in range(n)]
        M[a][b] = QQ(1)
        return M

    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"E{i + 1}{j + 1}")
            mats.append(emat(i, j))
    for i in range(n - 1):
        labels.append(f"H{i + 1}")
        M = [[QQ(0)] * n for _ in range(n)]
        M[i][i] = QQ(1)
        M[i + 1][i + 1] = QQ(-1)
        mats.append(M)
    for j in range(n):
        for i in range(j + 1, n):
            labels.append(f"E{i + 1}{j + 1}")
            mats.append(emat(i, j))
    return labels, mats


def sln_matrix_to_coords(n: int, M: Sequence[Sequence]) -> Vector:
    """Coordinates of a traceless matrix on the `sln_basis_matrices` basis."""
    tr = sum((QQ(M[i][i]) for i in range(n)), QQ(0))
    if tr:
        raise WalgError("matrix is not traceless")
    coords: List[QQ] = []
    for i in range(n):
        for j in range(i + 1, n):
            coords.append(QQ(M[i][j]))
    acc = QQ(0)
    for i in range(n - 1):
        acc += QQ(M[i][i])
        coords.append(acc)
    for j in range(n):
        for i in range(j + 1, n):
            coords.append(QQ(M[i][j]))
    return tuple(coords)


def make_sln(n: int) -> LieAlgebra:
    """sl_n over Q with matrix-unit basis; brackets from commutators.

    Each basis matrix has at most two nonzero entries, all integers, so a
    commutator is formed over those entries alone.
    """
    labels, mats = sln_basis_matrices(n)
    d = len(labels)
    nonzero = [[(r, c, v.numerator) for r, row in enumerate(M)
                for c, v in enumerate(row) if v] for M in mats]
    # coordinate index of each off-diagonal matrix unit; H_1 comes after the
    # upper units, and the H_i coordinate of a traceless diagonal D is
    # D_11 + ... + D_ii (see `sln_matrix_to_coords`)
    unit = {(r, c): k for k, nz in enumerate(nonzero) for r, c, _ in nz
            if r != c}
    h1 = n * (n - 1) // 2

    table = {}
    for i in range(d):
        for j in range(i + 1, d):
            C: Dict[Tuple[int, int], int] = {}
            for A, B, sign in ((nonzero[i], nonzero[j], 1),
                               (nonzero[j], nonzero[i], -1)):
                for r, k, a in A:
                    for k2, c, b in B:
                        if k == k2:
                            C[(r, c)] = C.get((r, c), 0) + sign * a * b
            coords = [0] * d
            acc = 0
            for k in range(n - 1):
                acc += C.get((k, k), 0)
                coords[h1 + k] = acc
            for rc, v in C.items():
                if rc[0] != rc[1]:
                    coords[unit[rc]] = v
            entry = {k: v for k, v in enumerate(coords) if v}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(labels, table)


class Sl2Triple:
    """(e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h, all exact.

    A triple belongs to the algebra it is validated in; its ad h grading
    and chi are computed once, by `ad_h_grading` and `chi`, and shared by
    every context built on it.
    """

    __slots__ = ("e", "h", "f", "_grading", "_chi")

    def __init__(self, L: LieAlgebra, e: Sequence, h: Sequence, f: Sequence):
        self.e = vec(e, L.dim)
        self.h = vec(h, L.dim)
        self.f = vec(f, L.dim)
        self._grading: Optional[GradedDecomposition] = None
        self._chi: Optional[CharacterChi] = None
        if L.bracket(self.h, self.e) != scale_vec(2, self.e):
            raise NoTripleFound("[h,e] != 2e")
        if L.bracket(self.h, self.f) != scale_vec(-2, self.f):
            raise NoTripleFound("[h,f] != -2f")
        if L.bracket(self.e, self.f) != self.h:
            raise NoTripleFound("[e,f] != h")


def complete_sl2_triple(L: LieAlgebra, e: Sequence) -> Sl2Triple:
    """Extend a nonzero ad-nilpotent e to an sl2-triple.

    Solves (ad e)^2 y = -2e and sets h = [e, y] (so [h,e] = 2e and h lies
    in the image of ad e), then solves the joint linear system
    [h,f] = -2f, [e,f] = h for f.  Any solution is accepted.  [h,e] = 2e
    makes ad e raise ad h eigenvalues by 2, so it is nilpotent: only a
    failed solve needs the powers of ad e, to tell the two errors apart.
    """
    e = vec(e, L.dim)
    if not any(e):
        raise NotNilpotent("e = 0 is rejected; the orbit must be nonzero")
    ade = L.ad_sparse(e)
    y = solve(ade @ ade, scale_vec(-2, e))
    if y is None:
        if ade.nilpotent_powers() is None:
            raise NotNilpotent("ad e is not nilpotent")
        raise NoTripleFound("(ad e)^2 y = -2e has no solution")
    h = L.bracket(e, y)
    stacked = L.ad_sparse(h).shift(2).stack(ade)
    b = [QQ(0)] * L.dim + list(h)
    f = solve(stacked, b)
    if f is None:
        raise NoTripleFound("no f with [h,f] = -2f and [e,f] = h")
    return Sl2Triple(L, e, h, f)


class GradedDecomposition:
    """Eigenspace decomposition of ad h with integer eigenvalues."""

    __slots__ = ("L", "pieces")

    def __init__(self, L: LieAlgebra, pieces: Dict[int, Subspace]):
        self.L = L
        self.pieces = dict(sorted(pieces.items()))

    def weights(self) -> List[int]:
        return list(self.pieces.keys())

    def piece(self, i: int) -> Subspace:
        got = self.pieces.get(i)
        if got is None:
            return Subspace(self.L.dim, [])
        return got

    def graded_basis(self, weights: Sequence[int]) -> List[Tuple[Vector, int]]:
        """[(vector, weight)] over the given weights, descending, echelon
        order in each."""
        out = []
        for i in sorted(weights, reverse=True):
            for v in self.piece(i).basis:
                out.append((v, i))
        return out


def ad_h_grading(L: LieAlgebra, triple: Sl2Triple) -> GradedDecomposition:
    """g = (+) g(i) under ad h, once per triple; raises if integer
    eigenvalues don't exhaust g."""
    if triple._grading is not None:
        return triple._grading
    adh = L.ad_sparse(triple.h)
    pieces: Dict[int, Subspace] = {}
    total = 0
    bound = 2 * L.dim
    scan = [0]
    for k in range(1, bound + 1):
        scan.extend((k, -k))
    for i in scan:
        ker = kernel(adh.shift(-i))
        if ker.dim:
            pieces[i] = ker
            total += ker.dim
            if total == L.dim:
                break
    if total != L.dim:
        raise NonIntegerEigenvalue(
            f"integer ad h eigenspaces span {total} of {L.dim} dimensions")
    triple._grading = GradedDecomposition(L, pieces)
    return triple._grading


class CharacterChi:
    """chi = kappa(e, .)/kappa(e, f); the point Phi(e) of g*.

    `covector` maps each j with chi(x_j) != 0 to that value."""

    __slots__ = ("covector", "kappa_ef")

    def __init__(self, L: LieAlgebra, triple: Sl2Triple):
        self.kappa_ef = L.killing(triple.e, triple.f)
        if not self.kappa_ef:
            raise DegenerateKillingForm("kappa(e,f) = 0 for an sl2-triple")
        K = L._killing
        es = [(i, c) for i, c in enumerate(triple.e) if c]
        self.covector = {j: v / self.kappa_ef for j in range(L.dim)
                         if (v := sum(c * K[i][j] for i, c in es))}

    def __call__(self, v: Sequence) -> QQ:
        return sum((c * v[j] for j, c in self.covector.items()), QQ(0))


def chi(L: LieAlgebra, triple: Sl2Triple) -> CharacterChi:
    """chi of the triple, once per triple."""
    if triple._chi is None:
        c = CharacterChi(L, triple)
        if c(triple.f) != 1:
            raise WalgError("normalization <chi, f> = 1 failed")
        triple._chi = c
    return triple._chi


class SymplecticData:
    """omega(x,y) = chi([x,y]) on g(-1), an isotropic ell, and ell^perp."""

    __slots__ = ("omega", "ell", "ell_perp")

    def __init__(self, omega, ell: Subspace, ell_perp: Subspace):
        self.omega = omega
        self.ell = ell
        self.ell_perp = ell_perp

    @property
    def is_lagrangian(self) -> bool:
        return self.ell == self.ell_perp


def symplectic_data(L: LieAlgebra, triple: Sl2Triple, grading: GradedDecomposition,
                    ell_spec: Sequence[Sequence], chi_fn: CharacterChi) -> SymplecticData:
    """Assemble omega, certify ell isotropic, compute ell^perp_omega."""
    gm1 = grading.piece(-1)
    m = gm1.dim
    basis = gm1.basis
    omega = tuple(tuple(chi_fn(L.bracket(basis[i], basis[j])) for j in range(m))
                  for i in range(m))
    if m and rank(SparseMatrix.from_rows(omega)) != m:
        raise DegenerateOmega("omega is degenerate on g(-1)")
    ell_vectors = [vec(v, L.dim) for v in ell_spec]
    for v in ell_vectors:
        if not gm1.contains(v):
            raise NotInsideGm1("ell vector lies outside g(-1)")
    ell = Subspace(L.dim, ell_vectors)
    for u in ell.basis:
        for v in ell.basis:
            if chi_fn(L.bracket(u, v)):
                raise NotIsotropic("omega does not vanish on ell")
    # ell^perp inside g(-1): kernel of the pairing rows omega(l, .)
    ker = kernel(SparseMatrix.from_rows(
        [[chi_fn(L.bracket(u, b)) for b in basis] for u in ell.basis], cols=m))
    ell_perp = Subspace(L.dim, [
        [sum((c * basis[k][t] for k, c in w.items()), QQ(0)) for t in range(L.dim)]
        for w in ker.rows])
    if ell.dim + ell_perp.dim != m:
        raise DegenerateOmega("dim ell + dim ell^perp != dim g(-1)")
    if not ell_perp.contains_subspace(ell):
        raise NotIsotropic("ell not contained in its omega-annihilator")
    return SymplecticData(omega, ell, ell_perp)


def lagrangian_auto(L: LieAlgebra, grading: GradedDecomposition,
                    chi_fn: CharacterChi) -> List[Vector]:
    """Greedy deterministic Lagrangian in g(-1).

    Repeatedly adjoins the earliest g(-1) basis vector lying in the
    omega-annihilator of the current span until half dimension is reached.
    """
    gm1 = grading.piece(-1)
    target = gm1.dim // 2
    chosen: List[Vector] = []
    for b in gm1.basis:
        if len(chosen) == target:
            break
        if all(not chi_fn(L.bracket(c, b)) for c in chosen):
            chosen.append(b)
    if len(chosen) != target:
        raise WalgError("greedy Lagrangian construction stalled")
    return chosen


class NilpotentPair:
    """a = ell (+) g(<= -2) inside n_ell = ell^perp (+) g(<= -2).

    Keeps both the canonical subspaces and graded bases (weight-descending,
    echelon order inside each weight) used for PBW ordering and cochain
    bookkeeping.
    """

    __slots__ = ("a", "n_ell", "a_graded", "n_graded")

    def __init__(self, a, n_ell, a_graded, n_graded):
        self.a = a
        self.n_ell = n_ell
        self.a_graded = a_graded
        self.n_graded = n_graded


def make_nilpotent_pair(L: LieAlgebra, grading: GradedDecomposition,
                        symp: SymplecticData, chi_fn: CharacterChi) -> NilpotentPair:
    low = [i for i in grading.weights() if i <= -2]
    low_graded = grading.graded_basis(low)
    a_graded = [(v, -1) for v in symp.ell.basis] + low_graded
    n_graded = [(v, -1) for v in symp.ell_perp.basis] + low_graded
    a = Subspace(L.dim, [v for v, _ in a_graded])
    n_ell = Subspace(L.dim, [v for v, _ in n_graded])
    if a.dim != len(a_graded) or n_ell.dim != len(n_graded):
        raise WalgError("graded basis of a or n_ell is not independent")
    if not n_ell.contains_subspace(a):
        raise WalgError("a not contained in n_ell")
    if not all(n_ell.contains(L.bracket(u, v)) for u, _ in n_graded for v, _ in n_graded):
        raise WalgError("n_ell not closed under bracket")
    for u, _ in a_graded:
        for v, _ in a_graded:
            w = L.bracket(u, v)
            if not a.contains(w):
                raise WalgError("a not closed under bracket")
            if chi_fn(w):
                raise WalgError("chi is not a character on a")
    if any(chi_fn(L.bracket(u, v)) for u, _ in a_graded for v, _ in n_graded):
        raise WalgError("chi([a, n_ell]) != 0")
    return NilpotentPair(a, n_ell, a_graded, n_graded)


def ker_ad_f(L: LieAlgebra, triple: Sl2Triple) -> Subspace:
    """Exact centralizer of f; the slice directions."""
    return kernel(L.ad_sparse(triple.f))


def decomposition_check(L: LieAlgebra, triple: Sl2Triple, grading: GradedDecomposition,
                        pair: NilpotentPair, kerf: Subspace) -> Dict[str, object]:
    """Exact check of a^{perp_g} = [n_ell, e] (+) Ker ad f, with kerf the
    context's `ker_ad_f`.

    Verifies zero intersection, full sum, the dimension law
    dim a^{perp_g} = dim n_ell + dim g(0) + dim g(-1), and injectivity of
    x -> [x, e] on n_ell.  Every clause is a rank or an evaluation: a^perp
    is the kernel of the Killing rows of a, the sum lies in it iff those
    rows kill its spanning vectors, and by the modular law the intersection
    has dimension dim [n_ell, e] + dim Ker ad f - dim of the sum.  Returns
    the dimensions and "ok": True; a failed clause raises
    `DecompositionFailure` with the dimensions alone as its witness.
    """
    K = L._killing
    kappa_a = SparseMatrix.from_rows(
        [[sum((v[i] * K[i][j] for i in range(L.dim) if v[i]), QQ(0))
          for j in range(L.dim)] for v in pair.a.basis], cols=L.dim)
    dim_a_perp = L.dim - rank(kappa_a)
    images = [L.bracket(v, triple.e) for v, _ in pair.n_graded]
    image_rows = [{j: c for j, c in enumerate(w) if c} for w in images]
    dim_bracket_ne = rank_of_rows(image_rows, L.dim)
    dim_sum = rank_of_rows(image_rows + list(kerf.rows), L.dim)
    in_a_perp = not any(any(kappa_a.apply(w)) for w in images + list(kerf.basis))
    dim_g0 = grading.piece(0).dim
    dim_gm1 = grading.piece(-1).dim
    dims = {"dim_a_perp": dim_a_perp, "dim_bracket_ne": dim_bracket_ne,
            "dim_kerf": kerf.dim, "dim_n": pair.n_ell.dim, "dim_g0": dim_g0,
            "dim_gm1": dim_gm1}
    if dim_bracket_ne + kerf.dim != dim_sum:
        raise DecompositionFailure("[n_ell,e] meets Ker ad f", dims)
    if not in_a_perp or dim_sum != dim_a_perp:
        raise DecompositionFailure("[n_ell,e] + Ker ad f != a^perp", dims)
    if dim_a_perp != pair.n_ell.dim + dim_g0 + dim_gm1:
        raise DecompositionFailure("dimension law fails", dims)
    if dim_bracket_ne != pair.n_ell.dim:
        raise DecompositionFailure("x -> [x,e] not injective on n_ell", dims)
    return {**dims, "ok": True}


def structure_checks(L: LieAlgebra, grading: GradedDecomposition) -> Dict[str, bool]:
    """Exhaustive exact structural validation on basis elements.

    Killing invariance kappa([x,y],z) = kappa(x,[y,z]), bracket grading
    compatibility and kappa(g(i), g(j)) = 0 for i + j != 0 are computed
    here.  Jacobi, the triple relations and chi([a, n_ell]) = 0 are the
    constant True: the constructors of a case raise on each of them
    (`LieAlgebra.__init__` runs `_check_jacobi`, `Sl2Triple.__init__` the
    three relations, `make_nilpotent_pair` the chi clause), so every case
    that reaches this check has them.
    """
    # kappa([x_i,x_j], x_k) and kappa(x_i, [x_j,x_k]) from the table and
    # the rows of the Killing matrix
    K = L._killing
    pieces = grading.pieces.items()
    return {
        "jacobi": True,
        "killing_invariance": all(
            sum(c * K[m][k] for m, c in L.bracket_basis(i, j).items())
            == sum(K[i][m] * c for m, c in L.bracket_basis(j, k).items())
            for i in range(L.dim) for j in range(i + 1, L.dim)
            for k in range(L.dim)),
        "grading_compatibility": all(
            grading.piece(i + j).contains(L.bracket(u, v))
            for i, pi in pieces for j, pj in pieces
            for u in pi.basis for v in pj.basis),
        "kappa_graded_pairing": not any(
            L.killing(u, v) for i, pi in pieces for j, pj in pieces if i + j
            for u in pi.basis for v in pj.basis),
        "triple_relations": True,
        "chi_character_on_a": True,
    }


# ---------------------------------------------------------------------------
# builtin nilpotents for sl_n
# ---------------------------------------------------------------------------


def partition_triple(n: int, parts: Sequence[int]) -> Tuple[Vector, Vector, Vector]:
    """Standard (e, h, f) for the Jordan-block nilpotent of a partition."""
    if sorted(parts, reverse=True) != list(parts) or sum(parts) != n or min(parts) < 1:
        raise WalgError(f"{parts} is not a partition of {n} in weakly decreasing order")
    if max(parts) == 1:
        raise NotNilpotent("partition [1,...,1] gives e = 0; the orbit must be nonzero")
    E = [[QQ(0)] * n for _ in range(n)]
    H = [[QQ(0)] * n for _ in range(n)]
    F = [[QQ(0)] * n for _ in range(n)]
    start = 0
    for p in parts:
        for k in range(p - 1):
            E[start + k][start + k + 1] = QQ(1)
            F[start + k + 1][start + k] = QQ((k + 1) * (p - 1 - k))
        for k in range(p):
            H[start + k][start + k] = QQ(p - 1 - 2 * k)
        start += p
    return (sln_matrix_to_coords(n, E), sln_matrix_to_coords(n, H),
            sln_matrix_to_coords(n, F))


def highest_root_triple(n: int) -> Tuple[Vector, Vector, Vector]:
    """Minimal-orbit triple e = E_1n, h = E_11 - E_nn, f = E_n1."""
    E = [[QQ(0)] * n for _ in range(n)]
    H = [[QQ(0)] * n for _ in range(n)]
    F = [[QQ(0)] * n for _ in range(n)]
    E[0][n - 1] = QQ(1)
    F[n - 1][0] = QQ(1)
    H[0][0] = QQ(1)
    H[n - 1][n - 1] = QQ(-1)
    return (sln_matrix_to_coords(n, E), sln_matrix_to_coords(n, H),
            sln_matrix_to_coords(n, F))


# ---------------------------------------------------------------------------
# JSON input format
# ---------------------------------------------------------------------------


def _index(x) -> int:
    """A basis index from JSON: an integer, never a truncated float."""
    if type(x) is not int:
        raise ConfigError(f"basis index {x!r} is not an integer")
    return x


def algebra_from_dict(data: dict) -> Tuple[LieAlgebra, dict]:
    """Build an algebra from the JSON input schema.

    Schema: {"labels": [...], "brackets": [{"i": int, "j": int,
    "value": [[k, "num/den"], ...]}, ...]} with 0-based indices; optional
    "nilpotent" and "ell" entries are passed through unparsed.
    """
    if not isinstance(data, dict):
        raise ConfigError("algebra data must be a JSON object")
    try:
        labels = data["labels"]
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ConfigError("algebra 'labels' must be a list of strings")
        table: Dict[Tuple[int, int], Dict[int, QQ]] = {}
        for item in data.get("brackets", []):
            i, j = _index(item["i"]), _index(item["j"])
            if (i, j) in table:
                raise ConfigError(f"bracket ({i},{j}) is given twice")
            value = {_index(k): QQ(str(c)) for k, c in item["value"]}
            if len(value) != len(item["value"]):
                raise ConfigError(f"bracket ({i},{j}) repeats a coordinate index")
            table[(i, j)] = value
    except KeyError as exc:
        raise ConfigError(f"algebra data is missing key {exc}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed algebra data: {exc}") from exc
    extras = {k: data[k] for k in ("nilpotent", "ell") if k in data}
    return LieAlgebra(labels, table), extras


def load_algebra_file(path: str) -> Tuple[LieAlgebra, dict]:
    """Read an algebra file; unreadable or malformed input is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read algebra file '{path}': {exc.strerror}") from exc
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"algebra file '{path}' is not valid JSON: {exc}") from exc
    return algebra_from_dict(data)
