"""Kazhdan-graded polynomial charts and the reduction of the Poisson bracket.

A chart is the labels and Kazhdan degrees of its variables.  A
`KazhdanPolynomial` is a `pbw.GradedTerms`, as a PBW element is: the symbol
of an element of Ug has the same monomials and degrees, so sums, degrees and
the printed form are shared, and only the commutative product is its own.
Three charts appear:

* the full chart on g* (variables = adapted PBW generators, degree
  weight + 2), carrying the Lie-Poisson bracket;
* the chart on chi + a^perp (the complement-of-a variables), the home of
  gr Q_ell;
* the slice chart (coordinates dual to a graded basis of Ker ad f,
  coordinate of weight i gets degree 2 - i), the home of C[S].

The reduced bracket on the slice follows the Hamiltonian-reduction recipe:
lift through the projection from chi + m^perp by the unique invariant
extension, extend arbitrarily to g*, bracket, restrict back
(`slice_poisson_bracket`, one pair at a time).  Restriction is an algebra
isomorphism on invariants, so the lift is the substitution
F -> F(T_1, ..., T_r) of the lifts of the r slice coordinates, found once,
by one linear solve per slice degree.  For many pairs the bracket is taken
on chi + a^perp itself, where a lift has no a-variables: the gradient of
each lift and its Hamiltonian field are formed once (`hamiltonian_field`),
and each pair costs one sum of products (`restricted_bracket`, with the
argument that it is the same bracket).

The symbol of ad x on gr Q_ell = C[chi + a^perp] is one `SymbolDerivation`
D_x per object x (`ReductionData.derivation`), read by the invariant lifts
(x in m), the CE complex and the transversality rank (x in n_ell), and the
Hamiltonian field (x a complement generator).

Both maps between charts are algebra maps, `nu` (complement chart -> slice
chart) and the lift (slice chart -> complement chart), and so is the
formal pullback along a coadjoint flow (complement chart -> complement
chart plus a time variable t).  Each is one `Substitution`, a chart-checked
`backend.MonomialMap`: built once per context or flow, it keeps the image
of every monomial it has met and forms a new one from its suffix by one
product.  Each chart is one object per PBW basis, so chart checks pass by
identity.
"""

from __future__ import annotations

from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from walg import backend
from walg.errors import (ChartMismatch, LiftFailure, NotNilpotentCoadjoint,
                         WalgError)
from walg.linalg import QQ, SparseMatrix, Vector, solve_columns, vec
from walg.pbw import GradedTerms, Monomial, PBWBasis, Terms

ZERO = QQ(0)
ONE = QQ(1)


class Chart:
    """Kazhdan-graded variables: their labels and degrees, in order."""

    __slots__ = ("kind", "labels", "degrees")

    def __init__(self, kind: str, labels: Sequence[str], degrees: Sequence[int]):
        self.kind = kind
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)

    def __eq__(self, other):
        return self is other or (isinstance(other, Chart) and self.kind == other.kind
                                 and self.labels == other.labels
                                 and self.degrees == other.degrees)

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        return f"Chart({self.kind}, {list(self.labels)})"


def _basis_chart(basis: PBWBasis, kind: str, size: int) -> Chart:
    """The chart on the first `size` generators, one object per basis, so
    that chart checks between polynomials of one job pass by identity."""
    chart = basis.charts.get(kind)
    if chart is None:
        chart = basis.charts[kind] = Chart(kind, basis.labels[:size],
                                           basis.degrees[:size])
    return chart


def full_chart(basis: PBWBasis) -> Chart:
    return _basis_chart(basis, "full", basis.lie.dim)


def complement_chart(basis: PBWBasis) -> Chart:
    return _basis_chart(basis, "complement", basis.n_complement)


class KazhdanPolynomial(GradedTerms):
    """Multivariate polynomial over Q with graded variables."""

    __slots__ = ("chart",)

    def __init__(self, chart: Chart, terms: Terms):
        self.chart = chart
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls, chart):
        return cls(chart, {})

    @classmethod
    def constant(cls, chart, c):
        return cls(chart, {(): QQ(c)})

    @classmethod
    def variable(cls, chart, idx, coeff=ONE):
        return cls(chart, {((idx, 1),): QQ(coeff)})

    def _space(self) -> Chart:
        return self.chart

    def _check(self, other):
        if not (isinstance(other, KazhdanPolynomial)
                and (self.chart is other.chart or self.chart == other.chart)):
            raise ChartMismatch(f"{self.chart!r} vs {other._space()!r}")

    def _mul_terms(self, t1: Terms, t2: Terms) -> Terms:
        return poly_mul(t1, t2)

    def __eq__(self, other):
        return (isinstance(other, KazhdanPolynomial) and self.chart == other.chart
                and self.terms == other.terms)


def gradient(terms: Terms, size: int) -> List[Terms]:
    """The partials [d_0 F, ..., d_{size-1} F] of the polynomial with terms
    `terms` on a chart of `size` variables, in one pass over its terms; a
    partial d_i takes m = m' x_i to e m', one to one, so nothing sums."""
    parts: List[Terms] = [{} for _ in range(size)]
    for m, c in terms.items():
        for pos, (i, e) in enumerate(m):
            rest = m[:pos] + ((i, e - 1),) + m[pos + 1:] if e > 1 else m[:pos] + m[pos + 1:]
            parts[i][rest] = c * e
    return parts


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m2) == 1:
        m1, m2 = m2, m1
    if len(m1) == 1:
        # one variable into the sorted factors of the other
        (i, e), = m1
        for pos, (j, f) in enumerate(m2):
            if j == i:
                return m2[:pos] + ((i, e + f),) + m2[pos + 1:]
            if j > i:
                return m2[:pos] + m1 + m2[pos:]
        return m2 + m1
    d = dict(m1)
    for i, e in m2:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def add_product(out: Terms, t1: Terms, t2: Terms) -> Terms:
    """Add the product of the polynomials t1 and t2 into the terms `out`, in
    place, and return `out`."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def poly_mul(t1: Terms, t2: Terms) -> Terms:
    """Product of two polynomials given by their terms, as a new dict."""
    return add_product({}, t1, t2)


class Substitution:
    """The algebra map C[source] -> C[target] sending variable i to images[i].

    An algebra map is fixed by the images of the monomials: `_memo` is the
    `backend.MonomialMap` that builds each once, as variable i's image
    times the image of its suffix, and keeps it for the life of the map.
    """

    __slots__ = ("source", "target", "images", "_memo")

    def __init__(self, source: Chart, images: Sequence[KazhdanPolynomial],
                 target: Chart):
        if len(images) != len(source):
            raise ChartMismatch(f"{len(images)} images for the {len(source)} "
                                f"variables of {source!r}")
        for img in images:
            if img.chart != target:
                raise ChartMismatch(f"image on {img.chart!r}, expected {target!r}")
        self.source = source
        self.target = target
        self.images = images
        int_images = [backend.int_form(img.terms) for img in images]

        def step(i, img):
            den_i, ints_i = int_images[i]
            return den_i * img[0], poly_mul(ints_i, img[1])

        self._memo = backend.MonomialMap(step, {(): 1})

    @property
    def products(self) -> int:
        """The multiplications taken so far: one per monomial image built."""
        return len(self._memo.memo) - 1

    def __call__(self, F: KazhdanPolynomial) -> KazhdanPolynomial:
        if F.chart is not self.source and F.chart != self.source:
            raise ChartMismatch(f"{F.chart!r} is not the source chart {self.source!r}")
        return KazhdanPolynomial(self.target, self._memo(F.terms))

    def form(self, terms: Terms) -> Tuple[int, Terms]:
        """The image of the source polynomial with terms `terms` (on
        integer numerators, say) as (scale, ints), value ints / scale, as
        `backend.combine` gives it: one sum over the memo, nothing
        divided."""
        return backend.combine([(c, self._memo.image(m)) for m, c in terms.items()])


# ---------------------------------------------------------------------------
# monomial enumeration and Hilbert series
# ---------------------------------------------------------------------------


def enumerate_monomials(degrees: Sequence[int], max_degree: int) -> List[Monomial]:
    """All monomials of weighted degree <= max_degree, sorted by (degree, mono).

    Requires every variable degree to be positive, which is what the
    Kazhdan grading guarantees on complement and slice charts.
    """
    if any(d <= 0 for d in degrees):
        raise WalgError("enumeration needs positive variable degrees")
    out: List[Tuple[int, Monomial]] = []

    def rec2(idx, used, acc):
        out.append((used, tuple(acc)))
        for i in range(idx, len(degrees)):
            d = degrees[i]
            e = 1
            while used + e * d <= max_degree:
                rec2(i + 1, used + e * d, acc + [(i, e)])
                e += 1

    rec2(0, 0, [])
    out.sort(key=lambda t: (t[0], t[1]))
    return [m for _, m in out]


def monomials_of_degree(degrees: Sequence[int], n: int) -> List[Monomial]:
    return [m for m in enumerate_monomials(degrees, n)
            if sum(e * degrees[i] for i, e in m) == n]


def series_expand(degrees: Sequence[int], n_max: int) -> List[int]:
    """Coefficients of prod 1/(1 - t^d) up to degree n_max."""
    coeff = [0] * (n_max + 1)
    coeff[0] = 1
    for d in degrees:
        for i in range(d, n_max + 1):
            coeff[i] += coeff[i - d]
    return coeff


# ---------------------------------------------------------------------------
# Lie-Poisson bracket on the full chart
# ---------------------------------------------------------------------------


def lie_poisson_bracket(F1: KazhdanPolynomial, F2: KazhdanPolynomial,
                        basis: PBWBasis) -> KazhdanPolynomial:
    """{F1,F2}(xi) = xi([dF1, dF2]); linear coordinates reproduce the bracket."""
    chart = F1.chart
    if chart.kind != "full":
        raise ChartMismatch("Lie-Poisson bracket lives on the full g* chart")
    F1._check(F2)
    out: Terms = {}
    parts1 = gradient(F1.terms, len(chart))
    parts2 = gradient(F2.terms, len(chart))
    for (p, q), entry in basis.bracket.items():
        # (d_p F1 d_q F2 - d_q F1 d_p F2) * [x_p, x_q]
        add_product(out, poly_mul(parts1[p], parts2[q]), {((k, 1),): c for k, c in entry})
        add_product(out, poly_mul(parts1[q], parts2[p]), {((k, 1),): -c for k, c in entry})
    return KazhdanPolynomial(chart, out)


def restrict_to_chi_plus_a_perp(F: KazhdanPolynomial,
                                basis: PBWBasis) -> KazhdanPolynomial:
    """Substitute the a-coordinates by their chi-values."""
    if F.chart.kind != "full":
        raise ChartMismatch("restriction starts from the full chart")
    return KazhdanPolynomial(complement_chart(basis), basis.chi_reduce(F.terms))


def extend_to_full(F: KazhdanPolynomial, basis: PBWBasis,
                   twist: Optional[KazhdanPolynomial] = None) -> KazhdanPolynomial:
    """Extension of a complement-chart polynomial to g*.

    Reuses the same polynomial expression; an optional `twist` adds
    (y_q - chi(y_q)) * twist terms for every a-coordinate, which vanish on
    chi + a^perp, to exercise extension-independence.
    """
    out = dict(F.terms)
    if twist is not None:
        for q in range(basis.n_complement, basis.lie.dim):
            van = {((q, 1),): ONE}
            if basis.chi_vals[q]:
                van[()] = -basis.chi_vals[q]
            add_product(out, van, twist.terms)
    return KazhdanPolynomial(full_chart(basis), out)


# ---------------------------------------------------------------------------
# slice chart
# ---------------------------------------------------------------------------


class SliceData:
    """Graded coordinates on S = chi + Phi(Ker ad f).

    `nu_images[p]` is the restriction of the complement coordinate y_p to
    the slice: sum_k kappa(z_k, v_p)/kappa(e,f) t_k; `nu` is the
    substitution they define.
    """

    __slots__ = ("degrees", "chart", "nu_images", "nu", "basis")

    def __init__(self, basis: PBWBasis, kerf_graded: Sequence[Tuple[Vector, int]],
                 kappa_ef: QQ):
        self.basis = basis
        self.degrees = tuple(2 - w for _, w in kerf_graded)
        self.chart = Chart("slice", [f"t{k + 1}" for k in range(len(self.degrees))],
                           self.degrees)
        L = basis.lie
        images = []
        for p in range(basis.n_complement):
            terms: Terms = {}
            for k, (z, _) in enumerate(kerf_graded):
                c = L.killing(z, basis.vectors[p]) / kappa_ef
                if c:
                    terms[((k, 1),)] = c
            images.append(KazhdanPolynomial(self.chart, terms))
        self.nu_images = tuple(images)
        self.nu = Substitution(complement_chart(basis), self.nu_images, self.chart)

    def restrict(self, F: KazhdanPolynomial) -> KazhdanPolynomial:
        """nu: C[chi + a^perp] -> C[S] (restriction along the inclusion)."""
        return self.nu(F)


# ---------------------------------------------------------------------------
# coadjoint flows
# ---------------------------------------------------------------------------


class CoadjointFlow:
    """exp(t ad* x) for nilpotent x, kept as the pullback of the coordinates.

    The Taylor layers (ad x)^k / k! on the adapted basis are exact and
    sparse, entries (row, col) -> value; the pullback of the coordinate
    function y_p under the time-t flow is
    sum_k (-t)^k sum_q (ad x)^k / k! [q, p] y_q.  `_pullback` substitutes
    that for each complement y_p, with the a-coordinates replaced by their
    chi-values, into the complement chart plus one variable t of degree 0,
    the last.
    """

    __slots__ = ("_pullback",)

    def __init__(self, basis: PBWBasis, x: Sequence):
        d = basis.lie.dim
        A = SparseMatrix(d, d, {(k, p): c for p, col in
                                enumerate(basis.ad_coords(vec(x, d)))
                                for k, c in col.items()})
        powers = A.nilpotent_powers()
        if powers is None:
            raise NotNilpotentCoadjoint("ad x is not nilpotent")
        layers = [{(r, r): ONE for r in range(d)}]
        fact = 1
        for k, P in enumerate(powers, 1):
            fact *= k
            layers.append({rc: v / fact for rc, v in P.entries.items()})
        comp = complement_chart(basis)
        nc = basis.n_complement
        chart = Chart("flow", comp.labels + ("t",), comp.degrees + (0,))
        terms: List[Terms] = [{} for _ in range(nc)]
        for k, layer in enumerate(layers):
            t_k = ((nc, k),) if k else ()
            for (q, p), v in layer.items():
                if p >= nc:
                    continue
                if k % 2 == 1:
                    v = -v
                if q < nc:
                    m = ((q, 1),) + t_k
                else:
                    m, v = t_k, v * basis.chi_vals[q]
                terms[p][m] = terms[p].get(m, ZERO) + v
        self._pullback = Substitution(
            comp, [KazhdanPolynomial(chart, t) for t in terms], chart)

    def pullback_formal(self, F: KazhdanPolynomial) -> Dict[int, KazhdanPolynomial]:
        """F composed with the time-t flow, collected by powers of t.

        F lives on the complement chart and is treated as a function on
        chi + a^perp: a-coordinates appearing after the flow are replaced
        by their chi-values (legal whenever the flow preserves the space).
        """
        chart = F.chart
        if chart.kind != "complement":
            raise ChartMismatch("formal pullback expects a complement-chart polynomial")
        t = len(chart)  # the index of the time variable
        out: Dict[int, Terms] = {}
        for m, c in self._pullback(F).terms.items():
            k = 0
            if m and m[-1][0] == t:
                m, k = m[:-1], m[-1][1]
            out.setdefault(k, {})[m] = c
        return {k: KazhdanPolynomial(chart, terms) for k, terms in out.items()}


# ---------------------------------------------------------------------------
# invariant lift and the reduced bracket (Lagrangian case)
# ---------------------------------------------------------------------------


def _mono_index(monos: Sequence[Monomial]) -> Dict[Monomial, int]:
    return {m: i for i, m in enumerate(monos)}


def invariant_lift(F: KazhdanPolynomial, red: "ReductionData") -> KazhdanPolynomial:
    """The unique Ad*M-invariant polynomial on chi + m^perp restricting to F.

    Restriction is an algebra isomorphism from the invariants onto C[S]
    (Gan-Ginzburg), so the lift is F(T_1, ..., T_r) for the certified
    lifts T_k of the slice coordinates; it must restrict back to F.
    """
    if not red.is_lagrangian:
        raise LiftFailure("invariant lift requires a Lagrangian ell")
    if F.chart != red.slice_data.chart:
        raise ChartMismatch("lift input must live on the slice chart")
    lift = red.lift_map()(F)
    if red.slice_data.restrict(lift) != F:
        raise LiftFailure("lift does not restrict back to its input")
    return lift


def slice_poisson_bracket(F1: KazhdanPolynomial, F2: KazhdanPolynomial,
                          red: "ReductionData",
                          twist: Optional[KazhdanPolynomial] = None) -> KazhdanPolynomial:
    """{F1, F2} on C[S] by Hamiltonian reduction through chi + m^perp.

    `twist` selects a different arbitrary extension of the second lift to
    g*; the result is independent of it.
    """
    basis = red.basis
    G1 = invariant_lift(F1, red)
    G2 = invariant_lift(F2, red)
    E1 = extend_to_full(G1, basis)
    E2 = extend_to_full(G2, basis, twist=twist)
    br = lie_poisson_bracket(E1, E2, basis)
    return red.slice_data.restrict(restrict_to_chi_plus_a_perp(br, basis))


def hamiltonian_field(grad: Tuple[int, List[Terms]],
                      red: "ReductionData") -> Tuple[int, List[Terms]]:
    """(den, [D_{v_p} G]) over the complement generators v_p, for grad =
    (den_G, [d_q G]) of a lift G: D_{v_p} G = sum_q d_q G D_{v_p}(y_q), the
    second factor of the bracket below, over one common denominator."""
    den, parts = grad
    derivations = [red.derivation(v) for v in red.basis.vectors[:len(parts)]]
    scale = lcm(*(d.den for d in derivations))
    field = []
    for d in derivations:
        out: Terms = {}
        for part, img in zip(parts, d.images):
            if part and img:
                add_product(out, part, img)
        k = scale // d.den
        field.append({m: k * v for m, v in out.items()} if k != 1 else out)
    return den * scale, field


def restricted_bracket(grad: Tuple[int, List[Terms]],
                       field: Tuple[int, List[Terms]]) -> Tuple[int, Terms]:
    """(den, ints): {G1, G2} restricted to chi + a^perp, value ints / den,
    from the gradient of G1 and the Hamiltonian field of G2, the bracket
    `slice_poisson_bracket` takes before its last restriction, `nu`.

    The extension E of a lift G to g* (`extend_to_full`, no twist) is G
    itself, so d_q E = 0 for every a-coordinate q and d_p E = d_p G for
    the others, and `lie_poisson_bracket` keeps only the [x_p, x_q] with
    p < q < n_complement.  `restrict_to_chi_plus_a_perp` replaces each
    a-coordinate by its chi-value, and only the linear factor [x_p, x_q]
    has one, so
        {G1, G2}|  =  sum_{p<q} (d_p G1 d_q G2 - d_q G1 d_p G2) Lambda_pq
                   =  sum_p d_p G1 * sum_q Lambda_pq d_q G2
    with Lambda_pq = chi_reduce([v_p, v_q]) = D_{v_p}(y_q) = -Lambda_qp.
    The inner sum, the Hamiltonian field of G2 (`hamiltonian_field`), is
    formed once per G2, and everything runs on integer numerators over one
    denominator per polynomial.
    """
    (d1, parts), (d2, vs) = grad, field
    out: Terms = {}
    for part, v in zip(parts, vs):
        if part and v:
            add_product(out, part, v)
    return d1 * d2, out


class SymbolDerivation:
    """D_x, the symbol of ad x on gr Q = C[chi + a^perp], on integer
    numerators over the one denominator `den`.

    `images[p]` is D_x(y_p) = [x, v_p] mod (a - chi), a constant plus a
    linear form, read off `PBWBasis.ad_coords` and the chi-values.  D_x is
    a derivation, so D_x(y_g s) = D_x(y_g) s + y_g D_x(s) for a monomial
    y_g s (y_g its first variable): `image` builds the image of each
    monomial once per memo, from its suffix's.  A memo belongs to one pass
    of a consumer (the CE blocks, the lift systems), so a job keeps no
    image that nothing reads again.
    """

    __slots__ = ("den", "images")

    def __init__(self, basis: PBWBasis, x: Sequence):
        nc = basis.n_complement
        terms: Dict = {}
        for p, col in enumerate(basis.ad_coords(x)[:nc]):
            for q, c in col.items():
                if q < nc:
                    terms[(p, ((q, 1),))] = c
                elif basis.chi_vals[q]:
                    backend._acc(terms, (p, ()), c * basis.chi_vals[q])
        self.den, ints = backend.int_form(terms)
        self.images: List[Terms] = [{} for _ in range(nc)]
        for (p, m), v in ints.items():
            self.images[p][m] = v

    def image(self, mono: Monomial, memo: Dict[Monomial, Terms]) -> Terms:
        """The numerators of D_x(mono) over `den`, no zero among them, kept
        in `memo` with those of its suffixes."""
        out = memo.get(mono)
        if out is None:
            out = memo[mono] = self._image(mono, memo)
        return out

    def _image(self, mono: Monomial, memo: Dict[Monomial, Terms]) -> Terms:
        out: Terms = {}
        if not mono:
            return out
        g, e = mono[0]
        suffix = ((g, e - 1),) + mono[1:] if e > 1 else mono[1:]
        for m, c in self.images[g].items():
            backend._acc(out, mono_mul(m, suffix), c)
        var = ((g, 1),)
        for m, c in self.image(suffix, memo).items():
            backend._acc(out, mono_mul(var, m), c)
        return out


class ReductionData:
    """Chart bundle consumed by the lift and the reduced bracket.

    Built by walg.context.SliceContext; kept separate so the Poisson layer
    has no dependency on the quotient-module machinery.
    """

    __slots__ = ("basis", "comp_chart", "slice_data", "m_graded",
                 "is_lagrangian", "_lifts", "_lift_map", "_derivations")

    def __init__(self, basis: PBWBasis, slice_data: SliceData,
                 m_graded: Sequence[Tuple[Vector, int]], is_lagrangian: bool):
        self.basis = basis
        self.comp_chart = complement_chart(basis)
        self.slice_data = slice_data
        self.m_graded = tuple(m_graded)
        self.is_lagrangian = is_lagrangian
        self._lifts: Optional[List[KazhdanPolynomial]] = None
        self._lift_map: Optional[Substitution] = None
        self._derivations: Dict[int, Tuple[Sequence, SymbolDerivation]] = {}

    def coordinate_lifts(self) -> List[KazhdanPolynomial]:
        """The invariant lifts T_k of the slice coordinates t_k, computed once.

        T_k is the combination of complement monomials of degree d_k that
        every m-generator derivation kills and that restricts to t_k.  The
        system depends only on the degree, so it is built once per slice
        degree, and the right-hand sides of all the t_k of that degree are
        eliminated together (`linalg.solve_columns`).  Each T_k is
        certified by the formal pullback of every m-generator flow; a flow
        pulls back by an algebra automorphism, so every polynomial in the
        T_k is invariant too.
        """
        if self._lifts is not None:
            return self._lifts
        comp = self.comp_chart
        slice_degs = self.slice_data.degrees
        derivations = [(self.derivation(x), {}) for x, _ in self.m_graded]
        solutions: Dict[int, Tuple[List[Monomial], Optional[Vector]]] = {}
        for n in dict.fromkeys(slice_degs):
            monos = monomials_of_degree(comp.degrees, n)
            # restriction rows, then one block of invariance rows per m-generator
            indices = [_mono_index(monomials_of_degree(slice_degs, n))] + [
                _mono_index(monomials_of_degree(comp.degrees, n + w))
                for _, w in self.m_graded]
            entries: Dict[Tuple[int, int], QQ] = {}
            for j, mono in enumerate(monos):
                # invariance rows scaled by den: their right-hand side is 0
                images = [self.slice_data.restrict(
                    KazhdanPolynomial(comp, {mono: ONE})).terms] + [
                    d.image(mono, memo) for d, memo in derivations]
                offset = 0
                for index, image in zip(indices, images):
                    for m2, c2 in image.items():
                        entries[(offset + index[m2], j)] = c2
                    offset += len(index)
            rows = sum(map(len, indices))
            ks = [k for k, d in enumerate(slice_degs) if d == n]
            rhs = [[ZERO] * rows for _ in ks]
            for b, k in zip(rhs, ks):
                b[indices[0][((k, 1),)]] = ONE
            xs = solve_columns(SparseMatrix(rows, len(monos), entries), rhs)
            solutions.update((k, (monos, x)) for k, x in zip(ks, xs))
        lifts = []
        for k, n in enumerate(slice_degs):
            monos, x_sol = solutions[k]
            if x_sol is None:
                raise LiftFailure(f"no invariant lift of t{k + 1} in degree {n}")
            lifts.append(KazhdanPolynomial(comp, dict(zip(monos, x_sol))))
        for x, _ in self.m_graded:
            flow = CoadjointFlow(self.basis, x)
            for k, T in enumerate(lifts):
                if flow.pullback_formal(T) != {0: T}:
                    raise LiftFailure(f"lift of t{k + 1} is not flow-invariant")
        self._lifts = lifts
        return lifts

    def lift_map(self) -> Substitution:
        """The substitution F -> F(T_1, ..., T_r) on the slice chart, on the
        lifts of `coordinate_lifts`, built once."""
        if self._lift_map is None:
            self._lift_map = Substitution(self.slice_data.chart,
                                          self.coordinate_lifts(), self.comp_chart)
        return self._lift_map

    def derivation(self, x: Sequence) -> SymbolDerivation:
        """D_x, the symbol of ad x on C[chi + a^perp], built once per object
        x: a lookup hashes no Fraction, and the entry keeps x alive, so no
        other object takes its id."""
        hit = self._derivations.get(id(x))
        if hit is None:
            hit = self._derivations[id(x)] = (x, SymbolDerivation(self.basis, x))
        return hit[1]
