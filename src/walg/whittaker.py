"""Q_ell, the W-algebra H_ell, Whittaker vectors, and cohomology checks.

Canonical forms: with the adapted PBW order (a-generators last), reducing
an element of Ug modulo the left ideal generated by x - chi(x), x in a,
is literal suffix chopping: every trailing a-factor of a straightened
monomial is replaced by its chi-value.  Products in Q are taken by left
action: the ideal is a left ideal, so q(g w) = q(g q(w)) for a generator
g, and a monomial acts by one generator step after its suffix, every
intermediate kept in canonical Q form: `_left_action` is the
`backend.MonomialMap` whose step is one generator step followed by
`chi_reduce`.  The natural maps between the Q_ell and the products formed
in Q (the forms of the ordered monomials and the generators'
commutators) all run on that one map.  The ad-action columns take no
product in Q: ad x is a derivation and I_ell a left ideal, so the column
of x_g s is q([x, x_g] s) + q(x_g q([x, s])), two generator steps on the
column of its suffix (`AdColumns`); the CE derivations D_x are built the
same way on the symbol side (`poisson.SymbolDerivation`).

H_ell is the joint kernel on F_n Q of the ad-action matrices of vectors
that generate n_ell, those independent modulo [n_ell, n_ell].  The
monomial order lists F_n Q as a prefix, so one elimination of their
stacked rows gives every F_n H (and likewise every Wh(F_n Q)) by
truncation: the kernel vector of a free column is supported on the
columns up to it, so those of the free columns of F_n Q span F_n H
(`linalg.kernel_vectors`).  By the PBW theorem for finite
W-algebras (Premet), the ordered monomials in lifts of the r slice
generators are a basis of H, and every `HBasis` is that basis: one
builder eliminates on F_t Q only, then goes up the degrees on one
echelon: it forms each ordered monomial up to n_max once, by `q_product`
from its suffix, and chooses the generators up to t.  Each form is
certified as it is built: independent in the echelon, in H (by the exact
kernel up to t, above t killed by ad x for every generator x of n_ell,
through the columns of the monomials they touch, `AdColumns`), and in
each degree k as many as dim C[S]_k: the exact kernel's dimension for
k <= t, and above t an upper bound for dim gr_k H by transversality (one
rank, `SliceContext.is_transversal`; see `h_basis`).  t is the largest
slice degree, or n_max if that is lower; a failed clause, or a failed
rank, is a `TheoremFailure` at its degree.  Products in H are rewritten
on the monomials, g_b g_a -> g_a g_b + [g_b, g_a], with each commutator
formed once in Q (`backend.word_map`), and the checks multiply in H that
way only.  The canonical prefix-stable representatives the reports print are
built on first use, by `_representatives`, from the canonical F_n H of the
certified forms: the one place a canonical F_n H is built.  The
`ell-independence` check multiplies the images of the natural map by
rewriting in the target H too, on their coordinates.  Every other
span question about H is a count or a read-off on the certificate's
echelon: the `whittaker` check counts the Whittaker vectors of each degree
(`whittaker_vectors`) against dim F_n H and reads each one off it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from walg import backend, poisson
from walg.context import SliceContext
from walg.errors import (CenterCheckFailure, ComparisonFailure,
                         DegreeOverflow, TheoremFailure, WalgError)
from walg.linalg import (QQ, Echelon, SparseMatrix, Subspace, Vector, _equals,
                         kernel_vectors, rank, solve_columns)
from walg.pbw import UEAElement
from walg.poisson import KazhdanPolynomial


# ---------------------------------------------------------------------------
# The left action on Q.
#
# I_ell is a left ideal, so q(g w) = q(g q(w)) for every generator g: a PBW
# monomial m = g s (g its first factor) acts on Q by one generator step
# after its suffix s.  `_left_action` is the `backend.MonomialMap` of
# m -> q(m base) for one `base`: one right factor of the products formed in
# Q, or one transport pass.  A step multiplies integer numerators, and
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

    def sparse_coords(self, u: UEAElement,
                      upto: Optional[int] = None) -> Dict[int, QQ]:
        """Nonzero coordinates of u on the F_upto Q monomials (all of F_n Q
        by default), index -> coefficient; DegreeOverflow for a term
        outside them."""
        cnt = len(self.monomials) if upto is None else self.dim_f(upto)
        index = self.index
        out = {}
        for m, c in u.terms.items():
            i = index.get(m)
            if i is None or i >= cnt:
                raise DegreeOverflow("element outside the computed degree range")
            out[i] = c
        return out

    def element(self, row: Dict[int, QQ]) -> UEAElement:
        """The element with sparse coordinates `row`, index -> coefficient."""
        monos = self.monomials
        return UEAElement(self.sctx.basis,
                          {monos[i]: c for i, c in sorted(row.items()) if c})


class AdColumns:
    """The columns v -> q([x, v~]) of ad x on PBW monomials, each built once,
    on first use (`column`), as an integer form (den, ints).

    ad x is a derivation, so for a monomial x_g s (x_g its first factor)
    [x, x_g s] = [x, x_g] s + x_g [x, s], and I_ell is a left ideal, so
    q(x_g [x, s]) = q(x_g q([x, s])): the column of x_g s is one step of
    the linear form [x, x_g] (`PBWBasis.ad_coords`) on s plus one step of
    x_g on the column of s, from the same memo.  F_n Q is closed under
    suffixes, so no column reaches outside it.  Every column is checked
    against the filtration law as it is built: x of ad h weight `weight`
    maps F_k Q into F_{k+weight} Q.
    """

    __slots__ = ("x", "basis", "weight", "brackets", "memo", "degrees")

    def __init__(self, x: Sequence, sctx: SliceContext, weight: int):
        basis = sctx.basis
        self.x, self.basis, self.weight = x, basis, weight
        # [x, x_g] of each generator, as a step (den, ((k, c), ...))
        self.brackets = [_linear({((k, 1),): c for k, c in col.items()})
                         for col in basis.ad_coords(x)]
        self.memo: Dict = {}
        self.degrees: Dict = {}           # monomial -> Kazhdan degree

    def column(self, mono) -> tuple:
        """q([x, mono~]) as an integer form (`backend.int_form`)."""
        col = self.memo.get(mono)
        if col is None:
            col = self._image(mono)
            k = self._degree(mono)
            for m in col[1]:
                if self._degree(m) > k + self.weight:
                    raise WalgError(f"ad action of weight {self.weight} takes "
                                    f"degree {k} to degree {self._degree(m)}")
            self.memo[mono] = col
        return col

    def _degree(self, mono) -> int:
        d = self.degrees.get(mono)
        if d is None:
            d = self.degrees[mono] = self.basis.monomial_degree(mono)
        return d

    def _image(self, mono) -> tuple:
        if not mono:
            return 1, {}
        g, e = mono[0]
        suffix = ((g, e - 1),) + mono[1:] if e > 1 else mono[1:]
        den, gens = self.brackets[g]
        parts = []
        if gens:
            parts.append((1, (den, _step(self.basis, gens, {suffix: 1}))))
        s_den, s_ints = self.column(suffix)
        if s_ints:
            parts.append((1, (s_den, _step(self.basis, ((g, 1),), s_ints))))
        # a step on a basis with a non-integral chi value or structure
        # constant can return Fractions, so the sum is put in lowest terms
        return backend.lowest_form(backend.combine(parts))

    def kills(self, terms: Dict) -> bool:
        """Whether ad x kills the element with term dict `terms`: one sum of
        the columns of its own monomials."""
        _, ints = backend.combine([(c, self.column(m)) for m, c in terms.items()])
        return not any(ints.values())


def ad_action_matrix(columns: AdColumns, qb: QDegreeBasis,
                     upto: int) -> SparseMatrix:
    """Matrix of v -> q([x, v~]) on the degree basis up to degree `upto`,
    for the x of `columns`; strictly lowers degree.  Its columns are those
    of `columns`, so a column built already is not built again."""
    cnt = qb.dim_f(upto)
    index = qb.index
    entries = {}
    for j, mono in enumerate(qb.monomials[:cnt]):
        den, ints = columns.column(mono)
        for m, c in backend._divide(ints, den).items():
            entries[(index[m], j)] = c
    return SparseMatrix._of(cnt, cnt, entries)


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
    return SparseMatrix._of(cnt, cnt, entries)


class HBasis:
    """F_n H for n <= n_max, worked on one basis of forms in Q.

    `forms[k]` is the Q form of the ordered monomial `words[k]` in
    generators of H, a tuple of (generator, exponent) pairs as in a PBW
    monomial.  The forms are linearly independent, listed by degree, and
    those of degree <= n span F_n H.  `form_coordinates` and `contains`
    read coordinates off one echelon of the forms' F_{n_max} Q coordinates,
    built by `h_basis` while it certified them; no call runs an
    elimination, and the coordinates are unique.  Coordinates, on the forms
    or on the representatives, are sparse rows: index -> coefficient, keys
    ascending, no zero value; only the report writer spells them out.
    Products of forms (`form_products`) are taken by rewriting in the
    generators.

    The reports print the canonical prefix-stable representatives
    (`elements`) and coordinates on the representatives (`coordinates`,
    `express`, `multiplication_table`).  These are built on first use: a
    job that only compares, or only tests membership, never builds them.
    """

    __slots__ = ("sctx", "n_max", "qb", "forms", "words", "degrees",
                 "gr_dims", "_echelon", "_canonical",
                 "_relations", "_cache")

    def __init__(self, sctx, n_max, qb, forms, degrees, echelon, words):
        self.sctx = sctx
        self.n_max = n_max
        self.qb = qb
        self.forms = forms                # UEAElement form of each basis vector
        self.words = words                # generator monomial of each form
        self.degrees = degrees            # degree at which each entered
        self.gr_dims = [degrees.count(n) for n in range(n_max + 1)]
        self._echelon = echelon           # Echelon of the forms' coordinates
        # (representatives, each form on them, each of them on the words)
        self._canonical = None
        self._relations = None            # (b, a) -> [g_b, g_a] over the words
        self._cache: dict = {}            # generator x word straightenings

    def _check_degree(self, n: int):
        if not 0 <= n <= self.n_max:
            raise DegreeOverflow(f"degree {n} outside computed range 0..{self.n_max}")

    def dim_f(self, n: int) -> int:
        """dim F_n H; F_n H = 0 for n < 0."""
        return sum(self.gr_dims[:max(n + 1, 0)])

    def _canonical_view(self):
        """(elements, rows, over_words): the canonical representatives,
        chosen from the canonical F_n H by `_representatives`; the
        integer form of each form's coordinates on them; and each
        of them as a term dict over the words.

        The forms are read off at the pivot columns of F_{n_max} H (see
        `_representatives`), where the vectors are short; the
        representatives are read off the echelon of the forms that
        `h_basis` certified, so no second echelon of the forms is built.
        """
        if self._canonical is None:
            rows, degrees, pivots, echelon = _representatives(self)
            if degrees != self.degrees:
                raise WalgError("representatives and forms disagree in degree (bug)")
            to_elements = [backend.int_form(echelon.coordinates(
                _at(self.qb.sparse_coords(f), pivots))) for f in self.forms]
            words = self.words
            over_words = [{words[k]: c for k, c in
                           self._echelon.coordinates(row).items()}
                          for row in rows]
            self._canonical = ([self.qb.element(row) for row in rows],
                               to_elements, over_words)
        return self._canonical

    @property
    def elements(self) -> List[UEAElement]:
        """The canonical prefix-stable representatives."""
        return self._canonical_view()[0]

    def form_coordinates(self, u: UEAElement,
                         n: int) -> Optional[Dict[int, QQ]]:
        """Coefficients of u on the forms if u lies in F_n H, else None.

        u must lie in F_n Q (`DegreeOverflow` otherwise); since
        F_n H = H intersected with F_n Q, the rest is one read-off from the
        echelon of all forms.
        """
        self._check_degree(n)
        return self._echelon.coordinates(self.qb.sparse_coords(u, upto=n))

    def _to_canonical(self, y) -> Dict[int, QQ]:
        """Coordinates on the representatives of sum y_k forms_k, (k, y_k) in y."""
        rows = self._canonical_view()[1]
        scale, xs = backend.combine([(c, rows[k]) for k, c in y])
        return {k: QQ(v, scale) for k, v in sorted(xs.items()) if v}

    def coordinates(self, u: UEAElement, n: int) -> Optional[Dict[int, QQ]]:
        """Coefficients of u on the representatives if u lies in F_n H,
        else None."""
        x = self.form_coordinates(u, n)
        return None if x is None else self._to_canonical(x.items())

    def contains(self, u: UEAElement, n: int) -> bool:
        """Whether u lies in F_n H."""
        return self.form_coordinates(u, n) is not None

    def express(self, u: UEAElement) -> Dict[int, QQ]:
        """Coefficients of u on the stored H-basis representatives."""
        deg = u.kazhdan_degree()
        self._check_degree(0 if deg is None else deg)
        x = self.coordinates(u, self.n_max)
        if x is None:
            raise WalgError("element does not lie in the computed H span")
        return x

    def product_pairs(self):
        """(i, j) of the basis pairs with deg_i + deg_j <= n_max."""
        for i, di in enumerate(self.degrees):
            for j, dj in enumerate(self.degrees):
                if di + dj <= self.n_max:
                    yield i, j

    def commutators(self) -> Dict[tuple, Dict]:
        """[g_b, g_a] for the generators b > a with deg a + deg b <= n_max,
        as term dicts over the words: each formed once in Q and read off
        on the forms of degree <= deg a + deg b - 2.

        q(g_a g_b) is the form of the ordered word g_a g_b, certified by
        `h_basis` already; only q(g_b g_a) is formed here, by `_products`,
        one left action per right factor g_a."""
        if self._relations is None:
            index = {w: k for k, w in enumerate(self.words)}
            gens = {w[0][0]: (f, d) for w, f, d in
                    zip(self.words, self.forms, self.degrees)
                    if len(w) == 1 and w[0][1] == 1}
            pairs = [(b, a) for b in gens for a in gens
                     if a < b and gens[a][1] + gens[b][1] <= self.n_max]
            forms = {g: f for g, (f, _) in gens.items()}
            relations = {}
            for b, a, ba in _products(pairs, forms, self.sctx):
                d = gens[a][1] + gens[b][1] - 2
                comm = ba - self.forms[index[((a, 1), (b, 1))]]
                cd = comm.kazhdan_degree()
                if cd is not None and cd > d:
                    raise WalgError("commutator violates the filtration degree law")
                x = self.form_coordinates(comm, d)
                if x is None:
                    raise WalgError("H is not closed under commutators (bug)")
                relations[(b, a)] = {self.words[k]: c for k, c in x.items()}
            self._relations = relations
        return self._relations

    def _word_products(self, pairs, left, right):
        """(i, j, left[i] right[j]) over the (i, j) in `pairs`, for term
        dicts over the words, by rewriting: one `backend.word_map` per right
        factor serves all of its pairs."""
        relations = {k: backend.int_form(v)
                     for k, v in self.commutators().items()}
        maps: Dict[int, backend.MonomialMap] = {}
        for i, j in pairs:
            act = maps.get(j)
            if act is None:
                act = maps[j] = backend.word_map(right[j], relations, self._cache)
            yield i, j, act(left[i])

    def form_products(self, pairs):
        """(i, j, x) over the (i, j) in `pairs`, in their order, with x the
        coefficients of forms_i forms_j on the forms."""
        index = {w: k for k, w in enumerate(self.words)}
        units = [{w: 1} for w in self.words]
        for i, j, terms in self._word_products(pairs, units, units):
            yield i, j, dict(sorted((index[w], c) for w, c in terms.items()))

    def multiplication_table(self):
        """(i, j) -> coefficients of elem_i * elem_j on the basis, i, j over
        the `product_pairs`."""
        pairs = self.product_pairs()
        index = {w: k for k, w in enumerate(self.words)}
        over_words = self._canonical_view()[2]
        return {(i, j): self._to_canonical((index[w], c) for w, c in t.items())
                for i, j, t in self._word_products(pairs, over_words, over_words)}


def _at(row: Dict[int, QQ], columns) -> Dict[int, QQ]:
    """The entries of the sparse row at the given set of columns."""
    return {j: c for j, c in row.items() if j in columns}


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
    """F_n H for n <= n_max, by the PBW theorem for finite W-algebras
    (Premet): the ordered monomials in generators of H are a basis.

    One builder, `_h_basis(qb, actions, t)`, takes the joint kernel of the
    ad-matrices of the generators of n_ell (`n_ell_generators`) on F_t Q,
    one elimination that gives each F_d H, d <= t, as the span of the
    kernel vectors of the free columns of F_d Q (`kernel_vectors`), so that
    dim F_d H is a count of them; it compares these dimensions with those
    of C[S] first.  Going up the degrees d <= n_max, it forms each ordered
    monomial of degree d in the generators so far once, by `q_product`
    from its suffix, chooses the generators of degree d <= t among those
    vectors, and decides every clause at d before d + 1, so a failure
    names the lowest failing degree.  The clauses certify that the forms
    span F_n H: they are independent in one echelon, in H (up to t the
    echelon spans no more than the exact kernel; above t killed by ad x
    for every generator x, `AdColumns.kills`, through the columns of the
    monomials they touch), and in each degree k there are dim C[S]_k of
    them: dim gr_k H, read off the exact kernel, for k <= t, and for
    k > t an upper bound for dim gr_k H by transversality:

    The symbol of ad x on gr Q = C[chi + a^perp], x in n_ell, is the
    derivation D_x (`ReductionData.derivation`).  Each D_x(y_p) is a
    constant plus a linear form, so D_x = A_x + L_x, where A_x has
    constant coefficients and lowers the polynomial degree by one and L_x
    keeps it.  The symbol f of an element of F_k H is killed by every D_x.
    Suppose the A_x, x over a basis of n_ell, and the directions of the
    slice S span all n_complement directions (`SliceContext.is_transversal`,
    one rank of that size per context).  If f restricts to 0 on S, the
    lowest polynomial-degree part of f is killed by every A_x, so it is a
    function on V / span(A_x), which restricts injectively to S; S is
    linear in the coordinates, so that part restricts to 0, hence is 0,
    and by induction on the polynomial degree f = 0.  So restriction to S
    embeds gr_k H in C[S]_k.

    t is top, the largest slice degree, or n_max if that is lower.  Above
    top the bound needs the rank: where it falls short, no basis is built,
    and the theorem fails at top + 1.  A clause that fails is a failure of
    the theorem, of transversality, or a bug, and no second route is
    taken: it is a `TheoremFailure` that names the clause and its degree.
    """
    top = max(sctx.slice_data.degrees, default=0)
    if n_max > top and not sctx.is_transversal():
        raise TheoremFailure("no transversality rank for the bound at degree "
                             f"{top + 1}", degree=top + 1)
    return _h_basis(QDegreeBasis(sctx, n_max), _ad_columns(sctx),
                    min(top, n_max))


def _ad_columns(sctx: SliceContext) -> List[AdColumns]:
    """The `AdColumns` of each generator of n_ell, with its ad h weight."""
    weight = dict(sctx.pair.n_graded)
    return [AdColumns(x, sctx, weight[x]) for x in n_ell_generators(sctx)]


def _representatives(hb: HBasis):
    """(rows, degrees, pivots, echelon) of the prefix-stable representatives
    of the canonical subspaces F_n H, n = 0, ..., n_max: their canonical
    rows, the pivot columns of F_{n_max} H, and an echelon of their entries
    at those columns.

    The canonical F_n H is the span of the canonical rows of F_{n-1} H and
    the forms of degree n; with no form of degree n it is F_{n-1} H, rows
    and all.  Representatives are chosen degree by degree, so that those of
    F_{n-1} H are literally a prefix of those of F_n H: a canonical row of
    F_n H joins the echelon unless the rows before it span it.  A row that
    F_{n-1} H has too lies in their span, so only the rows that are new or
    changed since the degree before are tried.  A vector of F_{n_max} H is
    the sum of the canonical rows weighted by its entries at their pivots,
    so those entries alone decide every span question inside it.
    """
    qb, spaces, current = hb.qb, [], {}
    for n in range(hb.n_max + 1):
        forms = hb.forms[hb.dim_f(n - 1):hb.dim_f(n)]
        if forms:
            space = Subspace.from_sparse(qb.dim_f(n), [
                *current.values(), *(qb.sparse_coords(f) for f in forms)])
            current = dict(zip(space.pivots, space.rows))
        spaces.append(current)
    pivots = set(spaces[-1])
    chosen, degrees = [], []
    echelon = Echelon()
    before: Dict[int, Dict[int, QQ]] = {}
    for n, current in enumerate(spaces):
        for p, row in current.items():
            if before.get(p) != row and echelon.extend(_at(row, pivots)):
                chosen.append(row)
                degrees.append(n)
        before = current
    return chosen, degrees, pivots, echelon


def _word_forms(basis, gens: Sequence[UEAElement]) -> backend.MonomialMap:
    """The map word -> q(g_{k1} ... g_{kt}) on words in the elements `gens`
    of Q, read at call time: each word's form is the left action of its
    first generator on the form of its suffix, as `q_product` takes it."""
    steps = _generator_steps(basis)

    def step(g, img):
        act = _left_action(basis, steps, img[1])
        den, ints = backend.int_form(act(gens[g].terms))
        return den * img[0], ints

    return backend.MonomialMap(step, {(): 1})


def _word_form(basis, word_forms: backend.MonomialMap, word) -> UEAElement:
    return UEAElement(basis, backend._value(word_forms.image(word)))


def _h_basis(qb: QDegreeBasis, actions: Sequence[AdColumns], t: int) -> HBasis:
    """The ordered monomials in generators chosen in the kernel on F_t Q,
    certified degree by degree as `h_basis` says: `TheoremFailure` at the
    lowest failing degree, naming the clause.

    The kernel's graded dimensions are those of C[S] up to t, or the
    theorem fails at the first degree where they differ; so every count
    has dim C[S]_d as its bound.  At degree d the forms of degree d in the
    generators so far join the echelon (above t once killed by every
    ad x), then each kernel vector of degree d outside its span, a new
    generator g (the word g is last in degree d): those of lower degree
    lie in its span already.  Above t the count is known, and checked,
    before any form is built.
    """
    sctx, basis = qb.sctx, qb.sctx.basis
    mats = [ad_action_matrix(a, qb, t) for a in actions]
    vectors = kernel_vectors(mats, qb.dim_f(t))
    by_degree = [[v for f, v in vectors.items()
                  if qb.dim_f(d - 1) <= f < qb.dim_f(d)] for d in range(t + 1)]
    bounds = sctx.hilbert_slice(qb.n)
    failure = _dimension_failure([len(vs) for vs in by_degree], bounds)
    if failure:
        raise failure
    gens: List[UEAElement] = []
    gen_degrees: List[int] = []
    word_forms = _word_forms(basis, gens)
    echelon = Echelon()
    words, degrees, forms = [], [], []

    def fail(d, reason):
        return TheoremFailure(f"{reason} at degree {d}", degree=d)

    def count_clause(d, count):
        if count != bounds[d]:
            raise fail(d, f"{count} ordered monomials against the bound "
                          f"{bounds[d]}")

    for d in range(qb.n + 1):
        products = poisson.monomials_of_degree(gen_degrees, d)
        if d > t:
            count_clause(d, len(products))
        for word in products:
            form = _word_form(basis, word_forms, word)
            if d > t and not all(a.kills(form.terms) for a in actions):
                raise fail(d, "an ordered monomial outside H")
            if not echelon.extend(qb.sparse_coords(form, upto=d)):
                raise fail(d, "dependent ordered monomials")
            words.append(word)
            forms.append(form)
        if d <= t:
            for v in by_degree[d]:
                if echelon.extend(v):
                    words.append(((len(gens), 1),))
                    gens.append(qb.element(v))
                    gen_degrees.append(d)
                    forms.append(_word_form(basis, word_forms, words[-1]))
            if len(echelon.rows) > sum(bounds[:d + 1]):
                raise fail(d, "an ordered monomial outside H")
            count_clause(d, len(words) - len(degrees))
        degrees += [d] * (len(words) - len(degrees))
    return HBasis(sctx, qb.n, qb, forms, degrees, echelon, words)


def _products(pairs, elements, sctx: SliceContext):
    """(i, j, q(e_i e_j)) over the (i, j) in `pairs`, in order, for the e_k
    in `elements` (a sequence or a dict): one left action m -> q(m e_j)
    (`_left_action`) per right factor, built on first use."""
    basis = sctx.basis
    steps = _generator_steps(basis)
    acts: Dict[int, backend.MonomialMap] = {}
    for i, j in pairs:
        act = acts.get(j)
        if act is None:
            act = acts[j] = _left_action(basis, steps, elements[j].terms)
        yield i, j, UEAElement(basis, act(elements[i].terms))


def _read_off(prod: UEAElement, d: int, hb: HBasis) -> Dict[int, QQ]:
    """The coefficients of prod, a product in F_d H, on the forms: one
    read-off both checks that it lies there and gives them."""
    x = hb.form_coordinates(prod, d)
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


def nu_map(a: UEAElement, sctx: SliceContext, n: int) -> KazhdanPolynomial:
    """nu of the degree-n symbol of a: restrict gr_n a to the slice chart."""
    sym = KazhdanPolynomial(sctx.comp_chart, a.homogeneous_terms(n))
    return sctx.slice_data.restrict(sym)


def _dimension_failure(gr_dims, slice_dims) -> Optional[TheoremFailure]:
    """The failure at the first n with dim gr_n H != dim C[S]_n, if any."""
    for n, (a, b) in enumerate(zip(gr_dims, slice_dims)):
        if a != b:
            return TheoremFailure(f"dim gr_{n} H = {a} != {b} = dim C[S]_{n}",
                                  degree=n)
    return None


def _same(a: tuple, b: tuple) -> bool:
    """Whether the sums a and b, each (scale, ints) with value ints / scale,
    are equal, compared by cross-multiplication."""
    (sa, ia), (sb, ib) = a, b
    return {m: v * sb for m, v in ia.items() if v} == \
        {m: v * sa for m, v in ib.items() if v}


def _multiplicative(x: Dict, ks, nu_ints, i: int, j: int) -> bool:
    """Whether sum_{k in ks} x_k nu_k == nu_i nu_j for the integer forms
    nu_ints of the nu_k: the sum over one common scale, the product on
    numerators over den_i den_j."""
    (den_i, ints_i), (den_j, ints_j) = nu_ints[i], nu_ints[j]
    return _same(backend.combine([(c, nu_ints[k]) for k, c in x.items()
                                  if k in ks]),
                 (den_i * den_j, poisson.poly_mul(ints_i, ints_j)))


def verify_theorem(hb: HBasis) -> Tuple[List[KazhdanPolynomial], Dict]:
    """Degreewise check that nu: gr H -> C[S] is an algebra isomorphism.

    For every n <= hb.n_max, in the context of hb: dim gr_n H equals the
    slice Hilbert dimension and nu is injective on gr_n H; nu is
    multiplicative on all basis pairs with product degree in range.
    Returns (nus, table): nus[i] is nu of the i-th basis element, taken
    once at its degree, and table is `HBasis.multiplication_table`, sparse
    rows that only the report writer spells out densely.  A product
    e_i e_j = sum x_k e_k of degree d has nu sum x_k nu(e_k) over the
    representatives of degree d: the others have no degree-d terms or a
    zero coefficient.
    """
    n_max, sctx = hb.n_max, hb.sctx
    failure = _dimension_failure(hb.gr_dims, sctx.hilbert_slice(n_max))
    if failure:
        raise failure
    nus = [nu_map(a, sctx, d) for a, d in zip(hb.elements, hb.degrees)]
    sdegs = sctx.slice_data.degrees
    for n in range(n_max + 1):
        idxs = [i for i, d in enumerate(hb.degrees) if d == n]
        mindex = {m: k for k, m in enumerate(poisson.monomials_of_degree(sdegs, n))}
        entries = {(r, mindex[m]): c for r, i in enumerate(idxs)
                   for m, c in nus[i].terms.items()}
        if rank(SparseMatrix(len(idxs), len(mindex), entries)) != len(idxs):
            raise TheoremFailure(f"nu not injective on gr_{n} H", degree=n)
    table = hb.multiplication_table()
    nu_ints = [backend.int_form(nu.terms) for nu in nus]
    for (i, j), x in table.items():
        d = hb.degrees[i] + hb.degrees[j]
        if not _multiplicative(x, range(hb.dim_f(d - 1), hb.dim_f(d)),
                               nu_ints, i, j):
            raise TheoremFailure(
                f"nu not multiplicative on basis pair ({i},{j})", degree=d)
    return nus, table


def gr_commutators_vs_poisson(hb: HBasis, pairs):
    """(i, j, agrees) over the (i, j) in `pairs`, in their order, with
    agrees whether nu(gr[e_i, e_j]) is the reduced slice bracket
    {nu gr e_i, nu gr e_j} of the representatives e_i and e_j, raising at
    the same pair what the tests' per-pair reference raises (it is in
    `tests/reference.py`, with both products in Q and the bracket by
    `poisson.slice_poisson_bracket`): each object formed once, and no
    product formed in Q.

    Both products come lazily, in pair order, from the rewriting on the
    representatives' word expressions (`HBasis._word_products`, one map
    per right factor), read off as the theorem's table is.  The
    representatives of degree n span F_n H modulo F_{n-1} H, so the
    commutator x = x_ij - x_ji, of degree d = deg e_i + deg e_j, lies in
    F_{d-2} H iff no coordinate of degree > d - 2 is nonzero, and then
    nu(gr_{d-2} x) is sum x_k nu(e_k) over those of degree d - 2.  Each
    representative's nu (shared with that sum), invariant lift (with the
    restrict-back check) and its partials, and Hamiltonian field (its
    D_{v_p}, `poisson.hamiltonian_field`) are taken once.  The bracket is
    formed on chi + a^perp (`poisson.restricted_bracket`, where the
    argument that it is the bracket of `slice_poisson_bracket` is written)
    and restricted to the slice by `nu` on its integer form.
    """
    pairs = list(pairs)
    if not pairs:
        return
    sctx = hb.sctx
    if not sctx.is_lagrangian:
        raise WalgError("the reduced bracket needs a Lagrangian ell")
    red = sctx.reduction
    elements, _, over_words = hb._canonical_view()
    index = {w: k for k, w in enumerate(hb.words)}
    products = hb._word_products((p for i, j in pairs for p in ((i, j), (j, i))),
                                 over_words, over_words)

    @cache
    def nu(k):
        poly = nu_map(elements[k], sctx, hb.degrees[k])
        return poly, backend.int_form(poly.terms)

    @cache
    def grad(k):
        den, ints = backend.int_form(poisson.invariant_lift(nu(k)[0], red).terms)
        return den, poisson.gradient(ints, len(red.comp_chart))

    @cache
    def field(k):
        return poisson.hamiltonian_field(grad(k), red)

    for i, j in pairs:
        d = hb.degrees[i] + hb.degrees[j]
        if d > hb.n_max:
            raise DegreeOverflow("commutator degree outside computed range")
        (_, _, ij), (_, _, ji) = next(products), next(products)
        x = hb._to_canonical([(index[w], c) for w, c in ij.items()] +
                             [(index[w], -c) for w, c in ji.items()])
        low, top = hb.dim_f(d - 3), hb.dim_f(d - 2)
        if any(k >= top for k in x):
            raise WalgError("commutator violates the filtration degree law")
        lhs = backend.combine([(c, nu(k)[1]) for k, c in x.items()
                               if k >= low])
        den, ints = poisson.restricted_bracket(grad(i), field(j))
        scale, image = sctx.slice_data.nu.form(ints)
        yield i, j, _same((scale * den, image), lhs)


def whittaker_vectors(qb: QDegreeBasis) -> Dict[int, Dict[int, QQ]]:
    """Wh(F_n Q) = {v : (x - chi(x)) v = 0 mod I, x in m} (Lagrangian case),
    for every n up to the degree qb reaches, from one elimination: free
    column f -> its kernel vector (`linalg.kernel_vectors`), supported on
    the columns up to f.  So the vectors with f < dim F_n Q span
    Wh(F_n Q), and those of the free columns of degree n are as many as
    dim Wh(F_n Q) - dim Wh(F_{n-1} Q).
    """
    sctx = qb.sctx
    if not sctx.is_lagrangian:
        raise WalgError("Whittaker vectors are computed in the Lagrangian case")
    mats = [left_action_matrix(x, qb, sctx) for x, _ in sctx.pair.a_graded]
    return kernel_vectors(mats, len(qb.monomials))


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
    T = sorted(rest + (a, b)).  Each D_x(m) is formed once, by the Leibniz
    rule D_x(y_g s) = D_x(y_g) s + y_g D_x(s) on integer numerators over
    one denominator per x, from the image of its suffix in this call's
    memo (the context's `poisson.SymbolDerivation` of x,
    `ReductionData.derivation`), and divided once.  The monomials of each
    degree are a slice of `QDegreeBasis(sctx, n_max)`.
    """
    gens = sctx.pair.n_graded
    nn = len(gens)
    if i_max > nn:
        raise WalgError("cohomological index exceeds dim n_ell")

    # dual[s] lists the (a, b, c^s_ab), a < b, of the brackets in n_ell, all
    # read off one elimination
    ncols_mat = SparseMatrix.from_columns([v for v, _ in gens], rows=sctx.lie.dim)
    pairs = list(combinations(range(nn), 2))
    dual: List[list] = [[] for _ in range(nn)]
    for (a, b), cs in zip(pairs, solve_columns(ncols_mat, [
            sctx.lie.bracket(gens[a][0], gens[b][0]) for a, b in pairs])):
        if cs is None:
            raise WalgError("n_ell is not closed under bracket")
        for s, c in enumerate(cs):
            if c:
                dual[s].append((a, b, c))

    # n_ell has negative weights, so a cochain of degree n needs monomials
    # of degree <= n
    qb = QDegreeBasis(sctx, n_max)

    def of_degree(d):
        return qb.monomials[qb.dim_f(d - 1):qb.dim_f(d)]

    subsets = [list(combinations(range(nn), i)) for i in range(i_max + 2)]
    derivations = [(sctx.reduction.derivation(x), {}) for x, _ in gens]
    deriv: Dict = {}  # (x, m) -> terms of D_x(m), divided once

    def column(S, mono):
        """The (T, monomial, coefficient) terms of d(xi^S (x) mono)."""
        for x in range(nn):
            if x in S:
                continue
            T = tuple(sorted(S + (x,)))
            sign = (-1) ** T.index(x)
            acted = deriv.get((x, mono))
            if acted is None:
                d, memo = derivations[x]
                acted = deriv[(x, mono)] = backend._divide(d.image(mono, memo),
                                                           d.den)
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
                  for mono in of_degree(n + sum(gens[s][1] for s in S))]
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
            diffs.append(SparseMatrix._of(len(cod), len(dom), {
                rc: v for rc, v in entries.items() if v}))
        blocks[n] = (bases, diffs)
    return blocks


def ce_cohomology(i_max: int, n_max: int, sctx: SliceContext) -> List[List[int]]:
    """Chevalley-Eilenberg cohomology of n_ell with coefficients in gr Q:
    dims[i][n] = dim H^i(n_ell, gr Q) in Kazhdan degree n, for i <= i_max
    and n <= n_max.

    The truncation at Kazhdan degree n_max makes every graded block
    finite-dimensional; kernel and image ranks are exact.
    """
    dims: List[List[int]] = [[] for _ in range(i_max + 1)]
    for n, (bases, diffs) in ce_blocks(i_max, n_max, sctx).items():
        ranks = [rank(d) for d in diffs]
        for i in range(i_max + 1):
            dims[i].append(len(bases[i]) - ranks[i] - (ranks[i - 1] if i else 0))
    return dims


def center_injects(hb: HBasis) -> Dict[str, object]:
    """The Casimir image (`SliceContext.casimir_image`) lies in H (of the
    basis hb), is nonconstant, with nonzero nu-image.  Its ad n_ell
    invariance is checked by its two products with each x in Q, a route
    independent of the Leibniz columns of `AdColumns` that certify H.  A
    degree hb.n_max below the image's Kazhdan degree is a DegreeOverflow;
    `walg run` rejects it as bad input before any check runs.  Returns
    {"canonical_form", "degree", "nu_image"}: the image and its nu as
    strings, and its Kazhdan degree.
    """
    sctx = hb.sctx
    img = sctx.casimir_image()
    deg = img.kazhdan_degree()
    if deg is None or all(not m for m in img.terms):
        raise CenterCheckFailure("Casimir image is constant in Q", deg)
    for x, _ in sctx.pair.n_graded:
        xe = sctx.basis.element_from_ambient(x)
        if not (q_product(xe, img, sctx) - q_product(img, xe, sctx)).is_zero():
            raise CenterCheckFailure("Casimir image is not ad n_ell invariant",
                                     deg)
    if not hb.contains(img, deg):
        raise CenterCheckFailure("Casimir image outside the computed H basis",
                                 deg)
    nu = nu_map(img, sctx, deg)
    if nu.is_zero():
        raise CenterCheckFailure("Casimir image has zero nu-image", deg)
    return {"canonical_form": str(img), "degree": deg, "nu_image": str(nu)}


def ell_comparison(hb1: HBasis, hb2: HBasis) -> Dict[str, object]:
    """The natural map H_{ell1} -> H_{ell2} for ell1 inside ell2, on the
    bases hb1 and hb2, of one degree n_max.

    The forms of hb1 are transported in one pass (`q_transport`), the one
    left action on Q the check takes.  The images of F_n H_{ell1} are a
    prefix of the images, so each image is checked at its own degree d: it
    lies in F_d Q, and its coordinates on the forms of hb2 are read off
    once, which shows that it lies in F_d H_{ell2}.  Those forms are
    independent, so the image is independent of the images before it iff
    its coordinates extend their echelon; the first that does not names the
    first degree where injectivity fails.  With equal graded dimensions the
    map is then bijective in every degree.  The map is linear, so the image
    of f_i f_j = sum_k x_k f_k (`HBasis.form_products`, by rewriting in
    H_{ell1}) is sum_k x_k X_k, summed over the integer forms of the
    images' coordinates X_k on the forms of hb2; it must equal the product
    of the images, taken on those coordinates by rewriting in H_{ell2}
    (`HBasis._word_products`).  No product is formed in Q but the
    commutators of the generators of each basis.
    Returns {"n_max", "dims1", "dims2", "bijective", "mult_pairs", "ok"};
    a failed clause raises, so "bijective" is True in every degree and
    "ok" is True.
    """
    sctx1, sctx2, n_max = hb1.sctx, hb2.sctx, hb1.n_max
    if hb2.n_max != n_max:
        raise WalgError(f"compared bases of degrees {n_max} and {hb2.n_max}")
    if not sctx2.symp.ell.contains_subspace(sctx1.symp.ell):
        raise ComparisonFailure("ell1 is not contained in ell2")
    if hb1.gr_dims != hb2.gr_dims:
        n = next(n for n in range(n_max + 1) if hb1.dim_f(n) != hb2.dim_f(n))
        raise ComparisonFailure(
            f"dim F_{n}H differs: {hb1.dim_f(n)} vs {hb2.dim_f(n)}", degree=n)
    images = []                           # each image over the words of hb2
    echelon = Echelon()
    for img, d in zip(q_transport(hb1.forms, sctx1, sctx2), hb1.degrees):
        # the filtration first: `coordinates` needs img inside F_d Q
        if (img.kazhdan_degree() or 0) > d:
            raise ComparisonFailure("map does not respect the filtration",
                                    degree=d)
        x = hb2.form_coordinates(img, d)
        if x is None:
            raise ComparisonFailure("image not in H_{ell2}", degree=d)
        if not echelon.extend(x):
            raise ComparisonFailure("map not injective on F_n H", degree=d)
        images.append({hb2.words[k]: c for k, c in x.items()})
    image_ints = [backend.int_form(img) for img in images]
    mult_pairs = 0
    for (i, j, x), (_, _, rhs) in zip(
            hb1.form_products(hb1.product_pairs()),
            hb2._word_products(hb1.product_pairs(), images, images)):
        lhs = backend.combine([(c, image_ints[k]) for k, c in x.items()])
        if not _equals(lhs, rhs):
            raise ComparisonFailure(
                f"map fails to intertwine products on pair ({i},{j})")
        mult_pairs += 1
    return {"n_max": n_max, "dims1": hb1.gr_dims, "dims2": hb2.gr_dims,
            "bijective": [True] * (n_max + 1), "mult_pairs": mult_pairs,
            "ok": True}
