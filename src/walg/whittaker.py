"""Q_ell, the W-algebra H_ell, Whittaker vectors, and cohomology checks.

Canonical forms: with the adapted PBW order (a-generators last), reducing
an element of Ug modulo the left ideal generated by x - chi(x), x in a,
is literal suffix chopping: every trailing a-factor of a straightened
monomial is replaced by its chi-value.  Products in Q are taken by left
action: the ideal is a left ideal, so q(g w) = q(g q(w)) for a generator
g, and a monomial acts by one generator step after its suffix, every
intermediate kept in canonical Q form: `_left_action` is the
`backend.MonomialMap` whose step is one generator step followed by
`chi_reduce`.  The products in H, the ad-action matrices and the natural
maps between the Q_ell all run on that one map.  H_ell is the joint
kernel on F_n Q of the ad-action matrices of vectors that generate
n_ell, those independent modulo [n_ell, n_ell].  The monomial order lists F_n Q as a prefix, so one
elimination of their stacked rows at the top degree gives every F_n H (and
likewise every Wh(F_n Q)), read off by prefix as sparse canonical rows.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence

from walg import backend, poisson
from walg.context import SliceContext
from walg.errors import (CenterCheckFailure, ComparisonFailure, ConfigError,
                         DegreeOverflow, TheoremFailure, WalgError)
from walg.linalg import (QQ, Echelon, SparseMatrix, Subspace, Vector, _equals,
                         joint_prefix_kernels, rank, solve)
from walg.pbw import UEAElement, casimir
from walg.poisson import KazhdanPolynomial

ZERO = QQ(0)
ONE = QQ(1)


def q_canonical_form(u: UEAElement, sctx: SliceContext) -> UEAElement:
    """Image of u in Q_ell as its canonical complement-monomial form."""
    return UEAElement(sctx.basis, sctx.basis.chi_reduce(u.terms))


# ---------------------------------------------------------------------------
# The left action on Q.
#
# I_ell is a left ideal, so q(g w) = q(g q(w)) for every generator g: a PBW
# monomial m = g s (g its first factor) acts on Q by one generator step
# after its suffix s.  `_left_action` is the `backend.MonomialMap` of
# m -> q(m base) for one `base`: one right factor of the products in H, one
# matrix or one transport pass.  A step multiplies integer numerators, and
# only the result is divided, once.
# ---------------------------------------------------------------------------


def _linear(terms):
    """The combination sum c x_k of generators with term dict `terms`, as a
    step (den, ((k, c), ...)) on integer numerators."""
    den, ints = backend.int_form(terms)
    return den, tuple((m[0][0], c) for m, c in ints.items())


def _generator_steps(basis) -> List[tuple]:
    """The step of each generator x_g by itself: left multiplication."""
    return [(1, ((g, 1),)) for g in range(basis.lie.dim)]


def _step(basis, gens, ints):
    """q(L w) for L = sum c x_k over the (k, c) pairs `gens` and w the terms
    `ints`, on numerators: one `_gen_times_terms` per generator of L."""
    bracket, cache = basis.bracket, basis._cache_left
    if len(gens) == 1 and gens[0][1] == 1:
        return basis.chi_reduce(
            backend._gen_times_terms(gens[0][0], ints, bracket, cache))
    out: Dict = {}
    for k, c in gens:
        for n, v in backend._gen_times_terms(k, ints, bracket, cache).items():
            backend._acc(out, n, c * v)
    return basis.chi_reduce(out)


def _left_action(basis, steps: Sequence[tuple], base: Dict):
    """The map m -> q(m base) on PBW monomials, the generator x_g of m
    acting by the step steps[g] (see `_step`)."""
    def step(g, img):
        step_den, gens = steps[g]
        return step_den * img[0], _step(basis, gens, img[1])

    return backend.MonomialMap(step, basis.chi_reduce(base))


def q_product(a: UEAElement, b: UEAElement, sctx: SliceContext) -> UEAElement:
    """q(a b), by the left action of the monomials of a on q(b)."""
    basis = sctx.basis
    act = _left_action(basis, _generator_steps(basis), b.terms)
    return UEAElement(basis, act(a.terms))


def q_transport(elements: Sequence[UEAElement], sctx1: SliceContext,
                sctx2: SliceContext) -> List[UEAElement]:
    """The natural map Q_{ell1} -> Q_{ell2} (I_{ell1} inside I_{ell2}) on
    `elements`, given over the PBW basis of sctx1.

    One left action serves all of them: a generator of the first basis
    acts by its expression over the second, on q(1).
    """
    source, target = sctx1.basis, sctx2.basis
    if source.lie is not target.lie:
        raise WalgError("the natural map needs the same underlying algebra")
    steps = [_linear(target.element_from_ambient(v).terms)
             for v in source.vectors]
    act = _left_action(target, steps, {(): 1})
    return [UEAElement(target, act(u.terms)) for u in elements]


class QDegreeBasis:
    """Ordered monomial basis of F_n Q (degrees ascending, prefix-stable)."""

    __slots__ = ("sctx", "n", "monomials", "index", "counts")

    def __init__(self, sctx: SliceContext, n: int):
        monos = poisson.enumerate_monomials(sctx.comp_chart.degrees, n)
        self.sctx = sctx
        self.n = n
        self.monomials = monos
        self.index = {m: i for i, m in enumerate(monos)}
        counts = [0] * (n + 1)
        basis = sctx.basis
        for m in monos:
            counts[basis.monomial_degree(m)] += 1
        # cumulative: counts[k] = dim F_k Q
        for k in range(1, n + 1):
            counts[k] += counts[k - 1]
        self.counts = counts
        hilb = sctx.hilbert_q(n)
        if [self.dim_f(k) for k in range(n + 1)] != \
                [sum(hilb[:k + 1]) for k in range(n + 1)]:
            raise WalgError("Q degree basis disagrees with the Hilbert series")

    def dim_f(self, k: int) -> int:
        """dim F_k Q; F_k Q = 0 for k < 0."""
        return self.counts[min(k, self.n)] if k >= 0 else 0

    def _size(self, upto: Optional[int]) -> int:
        return len(self.monomials) if upto is None else self.dim_f(upto)

    def sparse_coords(self, u: UEAElement,
                      upto: Optional[int] = None) -> Dict[int, QQ]:
        """Nonzero coordinates of u on the F_upto Q monomials (all of F_n Q
        by default), index -> coefficient; DegreeOverflow for a term
        outside them."""
        cnt = self._size(upto)
        index = self.index
        out = {}
        for m, c in u.terms.items():
            i = index.get(m)
            if i is None or i >= cnt:
                raise DegreeOverflow("element outside the computed degree range")
            out[i] = c
        return out

    def coords(self, u: UEAElement, upto: Optional[int] = None) -> Vector:
        """`sparse_coords` as a dense tuple."""
        row = [ZERO] * self._size(upto)
        for i, c in self.sparse_coords(u, upto).items():
            row[i] = c
        return tuple(row)

    def element(self, row: Dict[int, QQ]) -> UEAElement:
        """The element with sparse coordinates `row`, index -> coefficient."""
        monos = self.monomials
        return UEAElement(self.sctx.basis,
                          {monos[i]: c for i, c in sorted(row.items()) if c})


def ad_action_matrix(x: Sequence, qb: QDegreeBasis,
                     sctx: SliceContext) -> SparseMatrix:
    """Matrix of v -> q([x, v~]) on the degree basis; strictly lowers degree.

    The column of v is q(x v), one step, minus q(v x), the left action of v
    on x; F_n Q is closed under suffixes, so that memo takes one step per
    column too.
    """
    basis = sctx.basis
    xe = basis.element_from_ambient(x).terms
    den, gens = _linear(xe)
    right = _left_action(basis, _generator_steps(basis), xe)
    cnt = len(qb.monomials)
    entries = {}
    for j, mono in enumerate(qb.monomials):
        img = backend._value(backend.combine(
            [(1, (den, _step(basis, gens, {mono: 1}))),
             (-1, right.image(mono))]))
        deg_in = basis.monomial_degree(mono)
        for m, c in img.items():
            if basis.monomial_degree(m) >= deg_in:
                raise WalgError("ad action failed to lower the Kazhdan degree")
            entries[(qb.index[m], j)] = c
    return SparseMatrix(cnt, cnt, entries)


def left_action_matrix(x: Sequence, qb: QDegreeBasis,
                       sctx: SliceContext) -> SparseMatrix:
    """Matrix of v -> q((x - chi(x)) v~) on the degree basis, one step per
    column."""
    basis = sctx.basis
    den, gens = _linear(basis.element_from_ambient(x).terms)
    cx = sctx.chi(x)
    cnt = len(qb.monomials)
    entries = {}
    for j, mono in enumerate(qb.monomials):
        img = backend._value(backend.combine(
            [(1, (den, _step(basis, gens, {mono: 1}))),
             (-cx, (1, {mono: 1}))]))
        for m, c in img.items():
            entries[(qb.index[m], j)] = c
    return SparseMatrix(cnt, cnt, entries)


class HBasis:
    """Degreewise basis of H_ell with prefix-stable representatives.

    `coordinates`, `express` and `contains` read coordinates off one
    reduced echelon of the representatives' F_{n_max} Q coordinates, built
    by `h_basis` while it chose them; no call runs an elimination.  The
    representatives are linearly independent, so the coordinates of an
    element of H on them are unique: the read-off returns what solving the
    column system would.
    """

    __slots__ = ("sctx", "n_max", "qb", "elements", "degrees", "gr_dims",
                 "_subspaces", "_echelon")

    def __init__(self, sctx, n_max, qb, elements, degrees, gr_dims, subspaces,
                 echelon):
        self.sctx = sctx
        self.n_max = n_max
        self.qb = qb
        self.elements = elements          # QElement representatives
        self.degrees = degrees            # degree at which each entered
        self.gr_dims = gr_dims            # list, dim gr_n H for n <= n_max
        self._subspaces = subspaces       # n -> Subspace of F_n Q coordinates
        self._echelon = echelon           # Echelon of the elements' coordinates

    def _check_degree(self, n: int):
        if not 0 <= n <= self.n_max:
            raise DegreeOverflow(f"degree {n} outside computed range 0..{self.n_max}")

    def dim_f(self, n: int) -> int:
        """dim F_n H; F_n H = 0 for n < 0."""
        return sum(self.gr_dims[:max(n + 1, 0)])

    def subspace_at(self, n: int) -> Subspace:
        """F_n H as the canonical Subspace of F_n Q coordinates."""
        self._check_degree(n)
        return self._subspaces[n]

    def elements_up_to(self, n: int) -> List[UEAElement]:
        return self.elements[:self.dim_f(n)]

    def coordinates(self, u: UEAElement, n: int) -> Optional[Vector]:
        """Coefficients of u on the representatives if u lies in F_n H,
        else None.

        u must lie in F_n Q (`DegreeOverflow` otherwise); since
        F_n H = H intersected with F_n Q, the rest is one read-off from the
        echelon of all representatives.
        """
        self._check_degree(n)
        return self._echelon.coordinates(self.qb.sparse_coords(u, upto=n))

    def contains(self, u: UEAElement, n: Optional[int] = None) -> bool:
        """Whether u lies in F_n H (n defaults to n_max)."""
        return self.coordinates(u, self.n_max if n is None else n) is not None

    def express(self, u: UEAElement) -> Vector:
        """Coefficients of u on the stored H-basis representatives."""
        deg = u.kazhdan_degree()
        self._check_degree(0 if deg is None else deg)
        x = self.coordinates(u, self.n_max)
        if x is None:
            raise WalgError("element does not lie in the computed H span")
        return x

    def product_pairs(self, bound: Optional[int] = None):
        """(i, j) of the basis pairs with deg_i + deg_j <= bound (default n_max)."""
        bound = self.n_max if bound is None else bound
        for i, di in enumerate(self.degrees):
            for j, dj in enumerate(self.degrees):
                if di + dj <= bound:
                    yield i, j

    def multiplication_table(self, bound: Optional[int] = None):
        """(i, j) -> coefficient vector of elem_i * elem_j on the basis."""
        return {(i, j): _read_off(prod, self.degrees[i] + self.degrees[j], self)
                for i, j, prod in _products(self.product_pairs(bound),
                                            self.elements, self.sctx)}


def n_ell_generators(sctx: SliceContext) -> List[Vector]:
    """The n_graded vectors, in order, independent modulo [n_ell, n_ell]
    and the vectors chosen before them.

    n_ell is nilpotent, so vectors spanning n_ell / [n_ell, n_ell] generate
    it; and what ad x and ad y kill, ad [x, y] kills, so the joint kernel of
    their ad-actions is the n_ell-invariants.
    """
    L = sctx.lie
    vectors = [v for v, _ in sctx.pair.n_graded]
    echelon = Echelon()
    for i, u in enumerate(vectors):
        for v in vectors[i + 1:]:
            echelon.extend({j: c for j, c in enumerate(L.bracket(u, v)) if c})
    return [v for v in vectors
            if echelon.extend({j: c for j, c in enumerate(v) if c})]


def h_basis(n_max: int, sctx: SliceContext) -> HBasis:
    """F_n H for n <= n_max as joint kernels of the ad-matrices of the
    generators of n_ell (`n_ell_generators`).

    One elimination of their stacked rows on F_{n_max} Q gives every F_n H,
    read off by prefix.  Representatives are chosen degree by degree, so
    that those of F_{n-1} H are literally a prefix of those of F_n H: a
    canonical row of F_n H joins the echelon unless the rows before it span
    it.  A row that F_{n-1} H has too lies in their span, so only the rows
    that are new or changed since the degree before are tried.
    """
    qb = QDegreeBasis(sctx, n_max)
    mats = [ad_action_matrix(x, qb, sctx) for x in n_ell_generators(sctx)]
    subspaces = joint_prefix_kernels(mats, len(qb.monomials),
                                     qb.counts[:n_max + 1])
    elements, degrees = [], []
    echelon = Echelon()
    before: Dict[int, Dict[int, QQ]] = {}
    for n, K in enumerate(subspaces):
        rows = dict(zip(K.pivots, K.rows))
        for p, row in rows.items():
            if before.get(p) != row and echelon.extend(row):
                elements.append(qb.element(row))
                degrees.append(n)
        before = rows
    gr_dims = [degrees.count(n) for n in range(n_max + 1)]
    return HBasis(sctx, n_max, qb, elements, degrees, gr_dims, subspaces,
                  echelon)


def _products(pairs, elements: Sequence[UEAElement], sctx: SliceContext):
    """(i, j, q(e_i e_j)) over the (i, j) in `pairs`, in their order, for
    the e_k in `elements`: one left action per right factor e_j serves all
    of its pairs."""
    basis = sctx.basis
    steps = _generator_steps(basis)
    acts: Dict[int, backend.MonomialMap] = {}
    for i, j in pairs:
        act = acts.get(j)
        if act is None:
            act = acts[j] = _left_action(basis, steps, elements[j].terms)
        yield i, j, UEAElement(basis, act(elements[i].terms))


def _read_off(prod: UEAElement, d: int, hb: HBasis) -> Vector:
    """The coefficients of prod, a product in F_d H, on the representatives:
    one read-off both checks that it lies there and gives them."""
    x = hb.coordinates(prod, d)
    if x is None:
        raise WalgError("H is not closed under multiplication (bug)")
    return x


def h_multiply(a: UEAElement, b: UEAElement, hb: HBasis) -> UEAElement:
    """Product in H_ell, taken in Q by left action (`q_product`) and
    verified by one read-off to lie in the computed F_{deg a + deg b} H."""
    da = a.kazhdan_degree() or 0
    db = b.kazhdan_degree() or 0
    if da + db > hb.n_max:
        raise DegreeOverflow(
            f"product degree {da + db} exceeds computed range {hb.n_max}")
    prod = q_product(a, b, hb.sctx)
    _read_off(prod, da + db, hb)
    return prod


def nu_map(a: UEAElement, sctx: SliceContext,
           n: Optional[int] = None) -> KazhdanPolynomial:
    """nu of the top symbol of a: restrict gr_n a to the slice chart."""
    if n is None:
        n = a.kazhdan_degree()
    if n is None:
        return KazhdanPolynomial.zero(sctx.slice_data.chart)
    sym = KazhdanPolynomial(sctx.comp_chart, a.homogeneous_terms(n))
    return sctx.slice_data.restrict(sym)


class TheoremReport:
    """`nus[i]` is nu of the i-th basis element at its own degree; `table`
    maps each in-range basis pair (i, j) to the coefficients of
    elem_i * elem_j on the basis, as `HBasis.multiplication_table(n_max)`."""

    __slots__ = ("n_max", "gr_dims", "slice_dims", "injective", "mult_pairs",
                 "nus", "table", "ok")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def verify_theorem(n_max: int, sctx: SliceContext,
                   hb: Optional[HBasis] = None) -> TheoremReport:
    """Degreewise check that nu: gr H -> C[S] is an algebra isomorphism.

    For every n <= n_max: dim gr_n H equals the slice Hilbert dimension
    and nu is injective on gr_n H; nu is multiplicative on all basis pairs
    with product degree in range.  Each such product is formed once, and
    its coefficients on the basis are kept as the report's `table`; nu of
    each basis element is taken once, at its degree, and kept as `nus`.
    """
    if hb is None:
        hb = h_basis(n_max, sctx)
    elif hb.n_max < n_max:
        raise DegreeOverflow(
            f"degree {n_max} outside computed range 0..{hb.n_max}")
    gr_dims = hb.gr_dims[:n_max + 1]
    slice_dims = sctx.hilbert_slice(n_max)
    if gr_dims != slice_dims[:n_max + 1]:
        for n in range(n_max + 1):
            if gr_dims[n] != slice_dims[n]:
                raise TheoremFailure(
                    f"dim gr_{n} H = {gr_dims[n]} != {slice_dims[n]} = dim C[S]_{n}",
                    degree=n)
    nus = [nu_map(a, sctx, d)
           for a, d in zip(hb.elements_up_to(n_max), hb.degrees)]
    injective = []
    sdegs = sctx.slice_data.degrees
    for n in range(n_max + 1):
        idxs = [i for i, d in enumerate(hb.degrees) if d == n]
        mindex = {m: k for k, m in enumerate(poisson.monomials_of_degree(sdegs, n))}
        entries = {(r, mindex[m]): c for r, i in enumerate(idxs)
                   for m, c in nus[i].terms.items()}
        ok = rank(SparseMatrix(len(idxs), len(mindex), entries)) == len(idxs)
        injective.append(ok)
        if not ok:
            raise TheoremFailure(f"nu not injective on gr_{n} H", degree=n)
    table = {}
    for i, j, prod in _products(hb.product_pairs(n_max), hb.elements, sctx):
        d = hb.degrees[i] + hb.degrees[j]
        x = _read_off(prod, d, hb)
        if nu_map(prod, sctx, d) != nus[i] * nus[j]:
            raise TheoremFailure(
                f"nu not multiplicative on basis pair ({i},{j})", degree=d)
        table[(i, j)] = x
    return TheoremReport(n_max=n_max, gr_dims=gr_dims,
                         slice_dims=slice_dims[:n_max + 1],
                         injective=injective, mult_pairs=len(table),
                         nus=nus, table=table, ok=True)


def gr_commutator_vs_poisson(a: UEAElement, b: UEAElement, hb: HBasis) -> bool:
    """Compare nu(gr[a,b]) with the reduced slice bracket of the symbols.

    The two sides come from independent pipelines: PBW commutator followed
    by nu versus invariant lift / Lie-Poisson / restriction.
    """
    sctx = hb.sctx
    if not sctx.is_lagrangian:
        raise WalgError("the reduced bracket needs a Lagrangian ell")
    da = a.kazhdan_degree() or 0
    db = b.kazhdan_degree() or 0
    if da + db > hb.n_max:
        raise DegreeOverflow("commutator degree outside computed range")
    comm = q_product(a, b, sctx) - q_product(b, a, sctx)
    cd = comm.kazhdan_degree()
    if cd is not None and cd > da + db - 2:
        raise WalgError("commutator violates the filtration degree law")
    lhs = nu_map(comm, sctx, da + db - 2)
    rhs = poisson.slice_poisson_bracket(nu_map(a, sctx, da), nu_map(b, sctx, db),
                                        sctx.reduction)
    return lhs == rhs


def whittaker_vectors(n: int, sctx: SliceContext,
                      qb: Optional[QDegreeBasis] = None) -> Subspace:
    """Wh(F_n Q) = {v : (x - chi(x)) v = 0 mod I, x in m} (Lagrangian case).

    The Subspace of F_n Q coordinates, for any degree basis qb reaching n.
    """
    if not sctx.is_lagrangian:
        raise WalgError("Whittaker vectors are computed in the Lagrangian case")
    if qb is None:
        qb = QDegreeBasis(sctx, n)
    mats = [left_action_matrix(x, qb, sctx) for x, _ in sctx.pair.a_graded]
    return joint_prefix_kernels(mats, len(qb.monomials), [qb.dim_f(n)])[0]


class CohomologyReport:
    """Dimensions of H^i(n_ell, gr Q) per (cohomological index, Kazhdan degree)."""

    __slots__ = ("i_max", "n_max", "dims")

    def __init__(self, i_max, n_max, dims):
        self.i_max = i_max
        self.n_max = n_max
        self.dims = dims

    def dim(self, i: int, n: int) -> int:
        return self.dims.get((i, n), 0)

    def row(self, i: int) -> List[int]:
        return [self.dim(i, n) for n in range(self.n_max + 1)]


def ce_blocks(i_max: int, n_max: int, sctx: SliceContext):
    """Graded blocks of the truncated Chevalley-Eilenberg complex.

    Returns {n: (bases, diffs)} where bases[i] lists the (subset, monomial)
    cochain basis of Lambda^i n* (x) gr Q in Kazhdan degree n (a dual
    generator of weight w counts -w) and diffs[i] is the differential
    C^i -> C^{i+1} on those bases, for i <= i_max: the cohomology up to
    H^{i_max} reads no higher differential.  Column (S, m) is
    d(xi^S (x) m) = sum_{x not in S} xi^x ^ xi^S (x) D_x(m) + dxi^S (x) m,
    where xi^x ^ xi^S = (-1)^{T.index(x)} xi^T, and dxi^s =
    -sum_{a<b} c^s_ab xi^a ^ xi^b puts, for s at position k of S and a, b
    not in rest = S - {s}, (-1)^{T.index(a) + T.index(b) + k} c^s_ab at
    T = sorted(rest + (a, b)).
    """
    gens = sctx.pair.n_graded
    nn = len(gens)
    if i_max > nn:
        raise WalgError("cohomological index exceeds dim n_ell")
    chart = sctx.comp_chart

    # dual[s] lists the (a, b, c^s_ab), a < b, of the brackets in n_ell
    ncols_mat = SparseMatrix.from_columns([v for v, _ in gens], rows=sctx.lie.dim)
    dual: List[list] = [[] for _ in range(nn)]
    for a, b in combinations(range(nn), 2):
        cs = solve(ncols_mat, sctx.lie.bracket(gens[a][0], gens[b][0]))
        if cs is None:
            raise WalgError("n_ell is not closed under bracket")
        for s, c in enumerate(cs):
            if c:
                dual[s].append((a, b, c))

    # n_ell has negative weights, so a cochain of degree n needs monomials
    # of degree <= n; grouping keeps the (degree, monomial) enumeration order
    monos: Dict[int, list] = {}
    for mono in poisson.enumerate_monomials(chart.degrees, n_max):
        monos.setdefault(sctx.basis.monomial_degree(mono), []).append(mono)
    subsets = [list(combinations(range(nn), i)) for i in range(i_max + 2)]
    deriv: Dict = {}  # (x, m) -> terms of D_x(m)

    def column(S, mono):
        """The (T, monomial, coefficient) terms of d(xi^S (x) mono)."""
        for x in range(nn):
            if x in S:
                continue
            T = tuple(sorted(S + (x,)))
            sign = (-1) ** T.index(x)
            acted = deriv.get((x, mono))
            if acted is None:
                acted = deriv[(x, mono)] = sctx.reduction.derivation(
                    gens[x][0], KazhdanPolynomial(chart, {mono: ONE})).terms
            for m2, c2 in acted.items():
                yield T, m2, sign * c2
        for k, s in enumerate(S):
            rest = S[:k] + S[k + 1:]
            for a, b, c in dual[s]:
                if a not in rest and b not in rest:
                    T = tuple(sorted(rest + (a, b)))
                    yield T, mono, (-1) ** (T.index(a) + T.index(b) + k) * c

    blocks = {}
    for n in range(n_max + 1):
        bases = [[(S, mono) for S in Ss
                  for mono in monos.get(n + sum(gens[s][1] for s in S), ())]
                 for Ss in subsets]
        diffs = []
        for dom, cod in zip(bases, bases[1:]):
            cod_index = {bm: r for r, bm in enumerate(cod)}
            entries: Dict = {}
            for j, (S, mono) in enumerate(dom):
                for T, m2, c in column(S, mono):
                    r = cod_index.get((T, m2))
                    if r is None:
                        raise WalgError("differential left the graded block")
                    backend._acc(entries, (r, j), c)
            diffs.append(SparseMatrix(len(cod), len(dom), entries))
        blocks[n] = (bases, diffs)
    return blocks


def ce_cohomology(i_max: int, n_max: int, sctx: SliceContext) -> CohomologyReport:
    """Chevalley-Eilenberg cohomology of n_ell with coefficients in gr Q.

    The truncation at Kazhdan degree n_max makes every graded block
    finite-dimensional; kernel and image ranks are exact.
    """
    blocks = ce_blocks(i_max, n_max, sctx)
    dims = {}
    for n, (bases, diffs) in blocks.items():
        ranks = [rank(d) for d in diffs]
        for i in range(i_max + 1):
            dims[(i, n)] = len(bases[i]) - ranks[i] - (ranks[i - 1] if i else 0)
    return CohomologyReport(i_max, n_max, dims)


class CenterReport:
    __slots__ = ("canonical_form", "degree", "nu_image", "ok")

    def __init__(self, canonical_form, degree, nu_image, ok):
        self.canonical_form = canonical_form
        self.degree = degree
        self.nu_image = nu_image
        self.ok = ok


def center_injects(n_max: int, sctx: SliceContext,
                   hb: Optional[HBasis] = None) -> CenterReport:
    """The Casimir image lies in H, is nonconstant, with nonzero nu-image.

    A degree n_max below the image's Kazhdan degree is a ConfigError.
    """
    omega = casimir(sctx.basis)
    img = q_canonical_form(omega, sctx)
    deg = img.kazhdan_degree()
    if deg is None or all(not m for m in img.terms):
        raise CenterCheckFailure("Casimir image is constant in Q", deg)
    if deg > n_max:
        raise ConfigError(f"the center check needs degree >= {deg}, the Kazhdan "
                          f"degree of the Casimir image; got {n_max}")
    for x, _ in sctx.pair.n_graded:
        xe = sctx.basis.element_from_ambient(x)
        if not (q_product(xe, img, sctx) - q_product(img, xe, sctx)).is_zero():
            raise CenterCheckFailure("Casimir image is not ad n_ell invariant",
                                     deg)
    if hb is not None and not hb.contains(img, deg):
        raise CenterCheckFailure("Casimir image outside the computed H basis",
                                 deg)
    nu = nu_map(img, sctx, deg)
    if nu.is_zero():
        raise CenterCheckFailure("Casimir image has zero nu-image", deg)
    return CenterReport(str(img), deg, str(nu), True)


class ComparisonReport:
    __slots__ = ("n_max", "dims1", "dims2", "bijective", "mult_pairs", "ok")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def ell_comparison(sctx1: SliceContext, sctx2: SliceContext, n_max: int,
                   hb1: Optional[HBasis] = None,
                   hb2: Optional[HBasis] = None) -> ComparisonReport:
    """The natural map H_{ell1} -> H_{ell2} for ell1 inside ell2.

    The representatives are transported in one pass (`q_transport`).  The
    images of F_n H_{ell1} are a prefix of the images, so each image is
    checked at its own degree d: it lies in F_d Q, and its coordinates on
    the H_{ell2} representatives are read off once, which shows that it
    lies in F_d H_{ell2}.  Those representatives are independent, so the
    image is independent of the images before it iff its coordinates
    extend their echelon; the first that does not names the first degree
    where injectivity fails.  With equal graded dimensions the map is then
    bijective in every degree.  The map is linear, so the image of
    e_i e_j = sum_k x_k e_k is sum_k x_k image_k, summed over the images'
    integer forms; it must equal the product of the images in Q_{ell2}.
    hb1 and hb2, when given, are the H-bases at n_max.
    """
    if not sctx2.symp.ell.contains_subspace(sctx1.symp.ell):
        raise ComparisonFailure("ell1 is not contained in ell2")
    if hb1 is None:
        hb1 = h_basis(n_max, sctx1)
    if hb2 is None:
        hb2 = h_basis(n_max, sctx2)
    if hb1.gr_dims != hb2.gr_dims:
        n = next(n for n in range(n_max + 1) if hb1.dim_f(n) != hb2.dim_f(n))
        raise ComparisonFailure(
            f"dim F_{n}H differs: {hb1.dim_f(n)} vs {hb2.dim_f(n)}", degree=n)
    images = q_transport(hb1.elements, sctx1, sctx2)
    image_ints = []
    echelon = Echelon()
    for img, d in zip(images, hb1.degrees):
        # the filtration first: `coordinates` needs img inside F_d Q
        if (img.kazhdan_degree() or 0) > d:
            raise ComparisonFailure("map does not respect the filtration",
                                    degree=d)
        x = hb2.coordinates(img, d)
        if x is None:
            raise ComparisonFailure("image not in H_{ell2}", degree=d)
        if not echelon.extend({k: c for k, c in enumerate(x) if c}):
            raise ComparisonFailure("map not injective on F_n H", degree=d)
        image_ints.append(backend.int_form(img.terms))
    mult_pairs = 0
    for (i, j, prod), (_, _, rhs) in zip(
            _products(hb1.product_pairs(n_max), hb1.elements, sctx1),
            _products(hb1.product_pairs(n_max), images, sctx2)):
        x = _read_off(prod, hb1.degrees[i] + hb1.degrees[j], hb1)
        lhs = backend.combine([(xk, f) for xk, f in zip(x, image_ints) if xk])
        if not _equals(lhs, rhs.terms):
            raise ComparisonFailure(
                f"map fails to intertwine products on pair ({i},{j})")
        mult_pairs += 1
    return ComparisonReport(n_max=n_max, dims1=hb1.gr_dims, dims2=hb2.gr_dims,
                            bijective=[True] * (n_max + 1),
                            mult_pairs=mult_pairs, ok=True)
