"""Enveloping algebra in PBW normal form with the Kazhdan filtration.

A `PBWBasis` fixes an ordered generating set adapted to the slice data:
generators spanning a complement of the subalgebra `a` come first and the
`a`-generators last, each group sorted by ad h weight descending.  With
that order, canonical forms in the quotient module Q_ell are obtained by
chopping trailing a-factors (see walg.whittaker).

Monomial/term layout is shared with walg.backend; straightening products
are memoized per basis, and the product is a `backend.MonomialMap`.
`GradedTerms` holds what an element shares with its symbol, a polynomial
of walg.poisson: sums, Kazhdan degrees and the printed form.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from walg import backend
from walg.errors import WalgError
from walg.liealg import (CharacterChi, GradedDecomposition, LieAlgebra,
                         NilpotentPair)
from walg.linalg import QQ, Echelon, SparseMatrix, Vector, exact, vec

Monomial = Tuple[Tuple[int, int], ...]
Terms = Dict[Monomial, QQ]


class PBWBasis:
    """Ordered, ad h homogeneous generating set of Ug adapted to (a, chi)."""

    __slots__ = ("lie", "vectors", "weights", "degrees", "labels",
                 "n_complement", "bracket", "chi_vals", "_inverse",
                 "_cache_left", "charts")

    def __init__(self, lie: LieAlgebra, graded_vectors: Sequence[Tuple[Vector, int]],
                 n_complement: int, chi_fn: CharacterChi):
        if len(graded_vectors) != lie.dim:
            raise WalgError("adapted basis must span the algebra")
        self.lie = lie
        self.vectors = tuple(v for v, _ in graded_vectors)
        self.weights = tuple(w for _, w in graded_vectors)
        # Kazhdan degree of each generator: ad h weight + 2
        self.degrees = tuple(w + 2 for w in self.weights)
        self.n_complement = n_complement
        labels = []
        for k, v in enumerate(self.vectors):
            labels.append(lie.label_of_vector(v) or f"v{k}")
        self.labels = tuple(labels)
        self._inverse = SparseMatrix.from_columns(self.vectors).inverse()
        if self._inverse is None:
            raise WalgError("adapted basis is singular")
        self.bracket = self._structure_constants()
        self.chi_vals = tuple(exact(chi_fn(v)) for v in self.vectors)
        self._cache_left: dict = {}
        # polynomial charts on these generators, by kind (see walg.poisson)
        self.charts: dict = {}

    @classmethod
    def adapted(cls, lie: LieAlgebra, grading: GradedDecomposition,
                pair: NilpotentPair, chi_fn: CharacterChi) -> "PBWBasis":
        """Complement-of-a generators first, a-generators last, weights descending."""
        # a complement vector is one outside the span of a and of the
        # complement vectors before it
        echelon = Echelon()
        for v, _ in pair.a_graded:
            echelon.extend({j: c for j, c in enumerate(v) if c})
        complement = [(v, i) for i in sorted(grading.weights(), reverse=True)
                      for v in grading.piece(i).basis
                      if echelon.extend({j: c for j, c in enumerate(v) if c})]
        a_part = sorted(pair.a_graded, key=lambda vw: -vw[1])
        if len(complement) + len(a_part) != lie.dim:
            raise WalgError("complement construction failed")
        return cls(lie, complement + a_part, len(complement), chi_fn)

    def coords(self, v: Sequence) -> Vector:
        """Coordinates of an ambient vector on the adapted basis."""
        return self._inverse.apply(vec(v, self.lie.dim))

    def ad_coords(self, x: Sequence) -> List[Dict[int, QQ]]:
        """[x, v_p] on the adapted basis for every generator v_p, as sparse
        dicts k -> coefficient: x goes through the inverse once, and
        [x, v_p] = sum_i x_i [v_i, v_p] is read off the structure
        constants."""
        cx = self.coords(x)
        cols: List[Dict[int, QQ]] = [{} for _ in range(self.lie.dim)]
        for (i, j), entry in self.bracket.items():
            for p, c in ((j, cx[i]), (i, -cx[j])):
                if c:
                    col = cols[p]
                    for k, b in entry:
                        col[k] = col.get(k, 0) + c * b
        return [{k: v for k, v in sorted(col.items()) if v} for col in cols]

    def _structure_constants(self):
        """[v_i, v_j] on the adapted basis, formed from the supports of v_i
        and v_j, the table and the columns of the sparse inverse."""
        lie, d = self.lie, self.lie.dim
        supports = [[(a, exact(c)) for a, c in enumerate(v) if c]
                    for v in self.vectors]
        inverse_cols: List[List[Tuple[int, QQ]]] = [[] for _ in range(d)]
        for (r, c), v in self._inverse.entries.items():
            inverse_cols[c].append((r, exact(v)))
        out = {}
        for i in range(d):
            for j in range(i + 1, d):
                w: Dict[int, QQ] = {}
                for a, x in supports[i]:
                    for b, y in supports[j]:
                        for k, c in lie.bracket_basis(a, b).items():
                            w[k] = w.get(k, 0) + x * y * c
                coords: Dict[int, QQ] = {}
                for k, c in w.items():
                    if c:
                        for r, v in inverse_cols[k]:
                            coords[r] = coords.get(r, 0) + c * v
                entry = tuple((k, exact(c)) for k, c in sorted(coords.items()) if c)
                if entry:
                    wt = self.weights[i] + self.weights[j]
                    for k, _ in entry:
                        if self.weights[k] != wt:
                            raise WalgError("bracket is not ad h homogeneous")
                    out[(i, j)] = entry
        return out

    # -- degree bookkeeping ---------------------------------------------------

    def monomial_degree(self, mono: Monomial) -> int:
        """Kazhdan degree: sum of exp * (weight + 2) over the factors."""
        degrees = self.degrees
        return sum(e * degrees[i] for i, e in mono)

    def chi_reduce(self, terms: Terms) -> Terms:
        """Replace every a-factor of each monomial by its chi-value.

        a-generators come last, so these are the trailing factors; the
        result involves complement generators only.
        """
        nc = self.n_complement
        chi_vals = self.chi_vals
        out: Terms = {}
        for mono, c in terms.items():
            k = len(mono)
            while k and mono[k - 1][0] >= nc:
                i, e = mono[k - 1]
                c = c * chi_vals[i] ** e
                k -= 1
            if not c:
                continue
            key = mono[:k] if k < len(mono) else mono
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return out

    def generator(self, k: int) -> "UEAElement":
        return UEAElement(self, {((k, 1),): QQ(1)})

    def element_from_ambient(self, v: Sequence) -> "UEAElement":
        c = self.coords(v)
        return UEAElement(self, {((k, 1),): c[k] for k in range(self.lie.dim) if c[k]})

    def one(self) -> "UEAElement":
        return UEAElement(self, {(): QQ(1)})

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def __repr__(self):
        return (f"PBWBasis({self.lie!r}, order {'<'.join(self.labels)}, "
                f"{self.n_complement} complement)")


class GradedTerms:
    """Exact rational combination of monomials in Kazhdan-graded variables.

    An element of Ug and its symbol in C[g*] = gr Ug have the same
    monomials, degrees and linear structure, so PBW elements and chart
    polynomials share this code.  A subclass names its space by
    `_space()`, whose `labels` and `degrees` describe the variables,
    rejects an operand from another space in `_check`, and multiplies
    term dicts in `_mul_terms`.
    """

    __slots__ = ("terms",)

    def _like(self, terms: Terms) -> "GradedTerms":
        return type(self)(self._space(), terms)

    # -- linear structure and product -----------------------------------------

    def __add__(self, other):
        if not isinstance(other, GradedTerms):
            other = self._like({(): QQ(other)})
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedTerms):
            other = self._like({(): QQ(other)})
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GradedTerms):
            c = QQ(other)
            return self._like({m: c * v for m, v in self.terms.items()})
        self._check(other)
        return self._like(self._mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    # -- Kazhdan grading ------------------------------------------------------

    def kazhdan_degree(self) -> Optional[int]:
        """Max of i + 2j over terms; None (bottom) for the zero element."""
        if not self.terms:
            return None
        degrees = self._space().degrees
        return max(sum(e * degrees[i] for i, e in m) for m in self.terms)

    def homogeneous_terms(self, n: int) -> Terms:
        degrees = self._space().degrees
        return {m: c for m, c in self.terms.items()
                if sum(e * degrees[i] for i, e in m) == n}

    def __str__(self):
        if not self.terms:
            return "0"
        space = self._space()
        labels, degrees = space.labels, space.degrees
        bits = []
        for m in sorted(self.terms,
                        key=lambda m: (sum(e * degrees[i] for i, e in m), m)):
            c = self.terms[m]
            factors = "*".join(labels[i] if e == 1 else f"{labels[i]}^{e}"
                               for i, e in m)
            if not factors:
                bits.append(str(c))
            elif c == 1:
                bits.append(factors)
            elif c == -1:
                bits.append(f"-{factors}")
            else:
                bits.append(f"{c}*{factors}")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    __repr__ = __str__


class UEAElement(GradedTerms):
    """Exact rational combination of PBW-ordered monomials."""

    __slots__ = ("basis",)

    def __init__(self, basis: PBWBasis, terms: Terms):
        self.basis = basis
        self.terms = {m: c for m, c in terms.items() if c}

    def _space(self) -> PBWBasis:
        return self.basis

    def _check(self, other):
        if not isinstance(other, UEAElement) or self.basis is not other.basis:
            raise WalgError("operands built over different PBW bases")

    def _mul_terms(self, t1: Terms, t2: Terms) -> Terms:
        b = self.basis
        return backend.mul_terms(t1, t2, b.bracket, b._cache_left)

    def __eq__(self, other):
        return (isinstance(other, UEAElement) and self.basis is other.basis
                and self.terms == other.terms)


def commutator(u: UEAElement, v: UEAElement) -> UEAElement:
    """uv - vu; drops two Kazhdan degrees."""
    return u * v - v * u


def casimir(basis: PBWBasis) -> UEAElement:
    """Quadratic Casimir sum x_i x^i over Killing-dual bases of g.

    Centrality [Omega, x_k] = 0 is verified before returning.
    """
    L = basis.lie
    d = L.dim
    inv = SparseMatrix.from_rows(
        [[L.killing(basis.vectors[a], basis.vectors[b]) for b in range(d)]
         for a in range(d)]).inverse()
    if inv is None:
        raise WalgError("Killing form degenerate in casimir()")
    omega = basis.zero()
    for (a, b), c in sorted(inv.entries.items()):
        omega = omega + c * (basis.generator(a) * basis.generator(b))
    for k in range(d):
        if not commutator(omega, basis.generator(k)).is_zero():
            raise WalgError("Casimir fails to be central")
    return omega
