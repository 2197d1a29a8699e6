"""Quotient module, W-algebra, Whittaker vectors, cohomology."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walg import backend, linalg, poisson, whittaker as W
from walg.context import build_context
from walg.cli import main
from walg.errors import (ComparisonFailure, DegreeOverflow, TheoremFailure,
                         WalgError)
from walg.liealg import highest_root_triple, make_sln, partition_triple
from walg.linalg import SparseMatrix, Subspace, kernel, rank, solve
from walg.pbw import UEAElement, casimir
from walg.poisson import KazhdanPolynomial

from conftest import span_at, whittaker_spans
from reference import (TwoSidedColumns, convert_element,
                       gr_commutator_vs_poisson, q_canonical_form)

def kp_var(chart, i, c=1):
    return KazhdanPolynomial.variable(chart, i, c)


def ad_matrix(x, qb, weight):
    """`W.ad_action_matrix` of x, of ad h weight `weight`, on all of F_n Q."""
    return W.ad_action_matrix(W.AdColumns(x, qb.sctx, weight), qb, qb.n)


def dense_coords(qb, u, upto=None):
    """`qb.sparse_coords(u, upto)` as a dense tuple."""
    row = [F(0)] * (len(qb.monomials) if upto is None else qb.dim_f(upto))
    for i, c in qb.sparse_coords(u, upto).items():
        row[i] = c
    return tuple(row)


def kernel_h_basis(n_max, sctx):
    """F_n H for n <= n_max, by the builder of `h_basis` at t = n_max: the
    oracle certified against the exact kernel in every degree, so that the
    span of its forms of degree <= n is the exact kernel on F_n Q.

    At t = n_max nothing is bounded from above, and no clause fails while
    the theorem holds: let gr H be a polynomial ring, of the dimensions of
    C[S].  The generators of degree d are rows of F_d H outside the span
    of the ordered monomials in those of lower degree, which span
    F_{d-1} H, so they form a minimal homogeneous system of generators of
    gr H.  In a polynomial ring such a system is algebraically independent
    (graded Nakayama: it has as many elements as the Krull dimension), so
    the symbols of the ordered monomials, products in the domain gr H, are
    independent, and each form is a product in H.  A failed clause there
    is a failure of the theorem, or a bug.
    """
    return W._h_basis(W.QDegreeBasis(sctx, n_max), W._ad_columns(sctx), n_max)


def test_q_canonical_examples(sl2_ctx):
    B = sl2_ctx.basis
    e, h, f = (B.generator(k) for k in range(3))
    assert q_canonical_form(f, sl2_ctx) == B.one()
    assert q_canonical_form(e * f, sl2_ctx) == e
    assert q_canonical_form(f * e, sl2_ctx) == e - h
    assert q_canonical_form(B.one(), sl2_ctx) == B.one()


def test_q_respects_left_action(sl3_min_lag):
    """q(u v) = q(u q(v)): reduction is a left Ug-module map."""
    B = sl3_min_lag.basis
    rng = random.Random(21)

    def rand(max_len=3):
        out = B.zero()
        for _ in range(2):
            w = B.one() * F(rng.randint(-2, 2), 1)
            for _ in range(rng.randint(0, max_len)):
                w = w * B.generator(rng.randrange(8))
            out = out + w
        return out

    for _ in range(15):
        u, v = rand(), rand()
        qv = q_canonical_form(v, sl3_min_lag)
        assert q_canonical_form(u * v, sl3_min_lag) == \
            q_canonical_form(u * qv, sl3_min_lag)


def test_q_degree_basis_sl2(sl2_ctx):
    qb2 = W.QDegreeBasis(sl2_ctx, 2)
    assert qb2.monomials == [(), ((1, 1),)]
    qb4 = W.QDegreeBasis(sl2_ctx, 4)
    assert set(qb4.monomials) == {(), ((1, 1),), ((1, 2),), ((0, 1),)}
    assert qb4.dim_f(4) == 4
    qb0 = W.QDegreeBasis(sl2_ctx, 0)
    assert qb0.monomials == [()]


def test_ad_matrix_examples(sl2_ctx):
    qb = W.QDegreeBasis(sl2_ctx, 4)
    M = ad_matrix(sl2_ctx.triple.f, qb, -2)
    # constants are killed
    j1 = qb.index[()]
    assert all(r != j1 or not v for (r, c), v in M.entries.items() if c == j1)
    # f . e = q(fe - ef) = -h
    je, jh = qb.index[((0, 1),)], qb.index[((1, 1),)]
    assert M.entries.get((jh, je)) == F(-1)


def test_h_basis_sl2(sl2_ctx, sl2_hb):
    hb = sl2_hb
    assert hb.gr_dims == [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert hb.elements[0] == sl2_ctx.basis.one()
    om_img = q_canonical_form(casimir(sl2_ctx.basis), sl2_ctx)
    assert hb.contains(om_img, 4)
    # the degree-4 generator is the Casimir image up to normalization
    gen4 = hb.elements[1]
    B = sl2_ctx.basis
    e, h = B.generator(0), B.generator(1)
    expected = 2 * e - h + F(1, 2) * (h * h)
    coeff = next(iter(gen4.terms.values()))
    scaled = gen4 * (expected.terms[((0, 1),)] / gen4.terms[((0, 1),)])
    assert scaled == expected


def test_h_basis_prefix_property(sl3_min_lag, sl3_hb_lag):
    hb = sl3_hb_lag
    assert hb.degrees == sorted(hb.degrees)
    for n in range(1, 7):
        prev = span_at(hb, n - 1)
        cur = span_at(hb, n)
        padded = Subspace(hb.qb.dim_f(n),
                          [list(b) + [F(0)] * (hb.qb.dim_f(n) - len(b))
                           for b in prev.basis])
        assert cur.contains_subspace(padded)


def test_h_basis_sl3_cases(sl3_hb_zero, sl3_hb_lag, sl3_hb_lag2):
    for hb in (sl3_hb_zero, sl3_hb_lag, sl3_hb_lag2):
        assert hb.gr_dims == [1, 0, 1, 2, 2, 2, 5]


def test_h_multiply_unit_and_casimir_square(sl2_ctx, sl2_hb):
    hb = sl2_hb
    om = q_canonical_form(casimir(sl2_ctx.basis), sl2_ctx)
    assert W.h_multiply(hb.elements[0], om, hb) == om
    sq = W.h_multiply(om, om, hb)
    assert hb.contains(sq, 8)
    cols = [dense_coords(hb.qb, x) for x in (hb.elements[0], om, sq)]
    assert rank(SparseMatrix.from_columns(cols,
                                          rows=len(hb.qb.monomials))) == 3


def test_h_multiply_degree_overflow(sl2_ctx, sl2_hb):
    om = q_canonical_form(casimir(sl2_ctx.basis), sl2_ctx)
    big = om
    with pytest.raises(DegreeOverflow):
        for _ in range(5):
            big = W.h_multiply(big, om, sl2_hb)


def test_filtered_commutator_law(sl3_hb_lag):
    """[F_n H, F_m H] lands in F_{n+m-2} H."""
    hb = sl3_hb_lag
    sctx = hb.sctx
    for i, a in enumerate(hb.elements):
        for j, b in enumerate(hb.elements):
            m, n = hb.degrees[i], hb.degrees[j]
            if m + n > hb.n_max:
                continue
            comm = q_canonical_form(a * b - b * a, sctx)
            d = comm.kazhdan_degree()
            if d is None:
                continue
            assert d <= m + n - 2
            assert hb.contains(comm, max(d, 0))


def test_nu_map_examples(sl2_ctx, sl2_hb):
    one_img = W.nu_map(sl2_ctx.basis.one(), sl2_ctx, 0)
    assert one_img == KazhdanPolynomial.constant(sl2_ctx.slice_data.chart, 1)
    om = q_canonical_form(casimir(sl2_ctx.basis), sl2_ctx)
    nu = W.nu_map(4 * om, sl2_ctx, om.kazhdan_degree())
    assert nu == kp_var(sl2_ctx.slice_data.chart, 0, 2)


def test_verify_theorem_small(sl2_hb):
    W.verify_theorem(sl2_hb)  # a failed clause raises
    assert sl2_hb.gr_dims == sl2_hb.sctx.hilbert_slice(sl2_hb.n_max)


def test_gr_commutator_vs_poisson_sl2(sl2_hb):
    a = sl2_hb.elements[1]
    assert gr_commutator_vs_poisson(a, a, sl2_hb)
    assert gr_commutator_vs_poisson(sl2_hb.elements[0], a, sl2_hb)


def test_gr_commutator_vs_poisson_deg3(sl3_hb_lag):
    gens3 = [sl3_hb_lag.elements[i] for i, d in enumerate(sl3_hb_lag.degrees)
             if d == 3]
    assert len(gens3) == 2
    assert gr_commutator_vs_poisson(gens3[0], gens3[1], sl3_hb_lag)


def test_whittaker_vectors_match_h(sl2_hb, sl3_hb_lag):
    spans = whittaker_spans(sl2_hb.qb)
    for n in (0, 4, 6):
        assert spans[n] == span_at(sl2_hb, n)
    spans = whittaker_spans(sl3_hb_lag.qb)
    for n in range(7):
        assert spans[n] == span_at(sl3_hb_lag, n)


def test_whittaker_needs_lagrangian(sl3_min_zero):
    from walg.errors import WalgError
    with pytest.raises(WalgError):
        W.whittaker_vectors(W.QDegreeBasis(sl3_min_zero, 2))


def test_ce_cohomology_sl2(sl2_ctx, sl2_hb):
    h0, h1 = W.ce_cohomology(1, 6, sl2_ctx)
    assert h0 == [1, 0, 0, 0, 1, 0, 0]
    assert h1 == [0] * 7
    assert h0[0] == 1
    assert h0 == sl2_hb.gr_dims[:7]


def test_ce_cohomology_sl3(sl3_min_zero, sl3_min_lag, sl3_hb_zero, sl3_hb_lag):
    for sctx, hb in ((sl3_min_zero, sl3_hb_zero), (sl3_min_lag, sl3_hb_lag)):
        h0, h1 = W.ce_cohomology(1, 6, sctx)
        assert h0 == sctx.hilbert_slice(6)
        assert h1 == [0] * 7
        assert h0 == hb.gr_dims


@pytest.mark.parametrize("ctx_name", ["sl3_min_zero", "sl4_211", "sl4_regular"])
def test_ce_differential_squares_to_zero(request, ctx_name):
    blocks = W.ce_blocks(3, 5, request.getfixturevalue(ctx_name))
    for n, (bases, diffs) in blocks.items():
        for i in range(len(diffs) - 1):
            d0, d1 = diffs[i], diffs[i + 1]
            comp = {}
            for (r, c), v in d1.entries.items():
                for (r2, c2), w in d0.entries.items():
                    if c == r2:
                        comp[(r, c2)] = comp.get((r, c2), 0) + v * w
            assert all(v == 0 for v in comp.values()), (n, i)


def ce_blocks_reference(i_max, n_max, sctx):
    """The Chevalley-Eilenberg blocks by the defining sums: D_x(m) for every
    subset, and every pair of every (i+1)-subset contracted onto S."""
    from itertools import combinations

    gens = sctx.pair.n_graded
    nn = len(gens)
    comp_degs = sctx.comp_chart.degrees
    L = sctx.lie
    red = sctx.reduction

    ncols_mat = SparseMatrix.from_columns([v for v, _ in gens], rows=L.dim)
    bracket_nn = {(a, b): solve(ncols_mat, L.bracket(gens[a][0], gens[b][0]))
                  for a in range(nn) for b in range(a + 1, nn)}

    def cochain_basis(i, n):
        return [(S, mono) for S in combinations(range(nn), i)
                for mono in poisson.monomials_of_degree(
                    comp_degs, n + sum(gens[s][1] for s in S))]

    def insert_sign(s, rest):
        if s in rest:
            return None, 0
        pos = sum(1 for r in rest if r < s)
        return tuple(sorted(rest + (s,))), (-1) ** pos

    def differential(i, dom, cod):
        cod_index = {bm: k for k, bm in enumerate(cod)}
        entries = {}
        for j, (S, mono) in enumerate(dom):
            poly = KazhdanPolynomial(sctx.comp_chart, {mono: F(1)})
            for x in range(nn):
                T, sign = insert_sign(x, S)
                if T is None:
                    continue
                for m2, c2 in red.derivation(gens[x][0], poly).terms.items():
                    backend._acc(entries, (cod_index[(T, m2)], j), sign * c2)
            for T in combinations(range(nn), i + 1):
                for l in range(i + 1):
                    for m in range(l + 1, i + 1):
                        a, b = T[l], T[m]
                        rest = tuple(t for t in T if t not in (a, b))
                        for s_idx, c in enumerate(bracket_nn[(a, b)]):
                            if not c:
                                continue
                            U, sign2 = insert_sign(s_idx, rest)
                            if U == S:
                                backend._acc(entries, (cod_index[(T, mono)], j),
                                             ((-1) ** (l + m)) * sign2 * c)
        return SparseMatrix(len(cod), len(dom), entries)

    blocks = {}
    for n in range(n_max + 1):
        bases = [cochain_basis(i, n) for i in range(i_max + 2)]
        blocks[n] = (bases, [differential(i, bases[i], bases[i + 1])
                             for i in range(i_max + 1)])
    return blocks


@pytest.mark.parametrize("ctx_name,n_max", [
    ("sl2_ctx", 10), ("sl3_min_zero", 8), ("sl3_min_lag", 8),
    ("sl3_min_lag2", 8), ("sl3_min_conj", 8), ("sl3_principal", 10),
    ("sl4_22_conj", 6), ("sl4_211", 5), ("sl4_regular", 6)])
def test_ce_blocks_match_reference(request, ctx_name, n_max):
    sctx = request.getfixturevalue(ctx_name)
    i_max = min(len(sctx.pair.n_graded), 3)
    got = W.ce_blocks(i_max, n_max, sctx)
    want = ce_blocks_reference(i_max, n_max, sctx)
    assert list(got) == list(want)
    for n in want:
        assert got[n][0] == want[n][0], n
        assert got[n][1] == want[n][1], n


def test_ce_blocks_form_each_derivation_once(monkeypatch, sl4_211):
    """Each D_x(m), x in n_ell, is formed once: the Leibniz memo builds
    the image of every monomial the blocks touch, and of its suffixes, one
    time each, and `ReductionData.derivation` is not called."""
    built = {}
    image = W.SymbolDerivation._image

    def counted(self, mono):
        key = (id(self), mono)
        built[key] = built.get(key, 0) + 1
        return image(self, mono)

    monkeypatch.setattr(W.SymbolDerivation, "_image", counted)
    calls = counting(monkeypatch, poisson.ReductionData, "derivation")
    blocks = W.ce_blocks(2, 5, sl4_211)
    assert built and max(built.values()) == 1
    assert calls == []
    touched = {mono for bases, _ in blocks.values() for basis in bases[:3]
               for _, mono in basis}
    assert touched <= {mono for _, mono in built}


CE_DERIVATION_CASES = ["sl3_min_zero", "sl3_min_lag", "sl4_211", "sl4_22_conj"]


@pytest.mark.parametrize("ctx_name", CE_DERIVATION_CASES)
def test_symbol_derivation_matches_gradient_route(request, ctx_name):
    """The integer Leibniz D_x(m) of `ce_blocks` against
    `ReductionData.derivation` (the gradient of m against the images
    D_x(y_p)), for every generator x of n_ell and every monomial the
    blocks touch, suffixes included, in the degrees `ce_blocks` reads."""
    sctx = request.getfixturevalue(ctx_name)
    red, chart = sctx.reduction, sctx.comp_chart
    n_max = 6
    derivations = []
    true_init = W.SymbolDerivation.__init__

    def recorded(self, red, x):
        true_init(self, red, x)
        derivations.append((x, self))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W.SymbolDerivation, "__init__", recorded)
        W.ce_blocks(1, n_max, sctx)
    assert len(derivations) == len(sctx.pair.n_graded)
    for x, d in derivations:
        assert type(d.den) is int and d.den > 0
        assert d.memo
        for mono, ints in d.memo.items():
            assert all(type(c) is int and c for c in ints.values())
            want = red.derivation(x, KazhdanPolynomial(chart, {mono: F(1)}))
            assert backend._divide(ints, d.den) == want.terms, mono


@pytest.mark.parametrize("ctx_name,n_max", [("sl4_regular", 6), ("sl4_211", 4)])
def test_ce_cohomology_vanishes_beyond_h0(request, ctx_name, n_max):
    sctx = request.getfixturevalue(ctx_name)
    dims = W.ce_cohomology(3, n_max, sctx)
    assert dims[0] == sctx.hilbert_slice(n_max)
    for i in (1, 2, 3):
        assert dims[i] == [0] * (n_max + 1), i


def test_center_injects(sl2_hb, sl3_hb_lag, sl3_hb_principal):
    assert W.center_injects(sl2_hb) == {
        "canonical_form": "-1/4*h + 1/2*e + 1/8*h^2", "degree": 4,
        "nu_image": "1/2*t1"}
    # a failed clause raises
    assert W.center_injects(sl3_hb_lag)["degree"] == 4
    assert W.center_injects(sl3_hb_principal)["degree"] == 4


def test_ideal_kills_h_representatives(sl3_min_lag, sl3_hb_lag):
    """I_ell . y stays in I_ell for y in H: q(u y) = 0 for u in the ideal."""
    sctx = sl3_min_lag
    B = sctx.basis
    rng = random.Random(22)
    a_elems = [B.element_from_ambient(x) for x, _ in sctx.pair.a_graded]
    chis = [sctx.chi(x) for x, _ in sctx.pair.a_graded]
    for _ in range(10):
        w = B.one() * F(rng.randint(-2, 2), 1)
        for _ in range(rng.randint(0, 2)):
            w = w * B.generator(rng.randrange(8))
        k = rng.randrange(len(a_elems))
        u = w * (a_elems[k] - chis[k] * B.one())
        assert q_canonical_form(u, sctx).is_zero()
        for y in sl3_hb_lag.elements[:4]:
            assert q_canonical_form(u * y, sctx).is_zero()


def test_ell_comparison_identity(sl3_hb_lag):
    W.ell_comparison(sl3_hb_lag, sl3_hb_lag)  # a failed clause raises


def test_ell_comparison_rejects_non_nested(sl3_min_lag, sl3_min_lag2):
    with pytest.raises(ComparisonFailure):
        W.ell_comparison(W.h_basis(2, sl3_min_lag), W.h_basis(2, sl3_min_lag2))


def test_ell_comparison_needs_bases_of_one_degree(sl3_min_zero, sl3_min_lag,
                                                 sl3_hb_zero, sl3_hb_lag):
    """The degree of the comparison is that of its first basis; a second
    basis of another degree is a `WalgError` naming both degrees."""
    low_zero, low_lag = W.h_basis(4, sl3_min_zero), W.h_basis(4, sl3_min_lag)
    for hb1, hb2 in ((low_zero, sl3_hb_lag), (sl3_hb_zero, low_lag)):
        with pytest.raises(WalgError,
                           match=f"degrees {hb1.n_max} and {hb2.n_max}"):
            W.ell_comparison(hb1, hb2)
    W.ell_comparison(low_zero, low_lag)  # a failed clause raises


def test_ell_comparison_zero_into_lagrangians(sl3_hb_zero, sl3_hb_lag,
                                              sl3_hb_lag2):
    # a failed clause raises
    rep1 = W.ell_comparison(sl3_hb_zero, sl3_hb_lag)
    rep2 = W.ell_comparison(sl3_hb_zero, sl3_hb_lag2)
    assert rep1["dims1"] == rep1["dims2"] == rep2["dims2"] == \
        [1, 0, 1, 2, 2, 2, 5]


def test_ell_comparison_detects_a_map_that_breaks_products(
        monkeypatch, sl3_hb_zero, sl3_hb_lag):
    """Doubling every transported element keeps it an injective filtered map
    into H, but not an algebra map: the product clause must still fail."""
    true_transport = W.q_transport
    monkeypatch.setattr(W, "q_transport", lambda els, s1, s2: [
        2 * img for img in true_transport(els, s1, s2)])
    with pytest.raises(ComparisonFailure,
                       match=r"fails to intertwine products on pair \(0,0\)"):
        W.ell_comparison(sl3_hb_zero, sl3_hb_lag)


def test_ell_comparison_detects_a_wrong_relation_in_the_target(
        monkeypatch, sl3_hb_zero, sl3_hb_lag):
    """Negative control for the relations of H_{ell2}: the products of the
    images are rewritten in H_{ell2}, so one coefficient of one nonzero
    commutator of hb2 off by 1 breaks the product clause, with the images
    and the source untouched."""
    relations = dict(sl3_hb_lag.commutators())
    pair, comm = next((p, c) for p, c in relations.items() if c)
    word = next(iter(comm))
    relations[pair] = {**comm, word: comm[word] + 1}
    monkeypatch.setattr(sl3_hb_lag, "_relations", relations)
    monkeypatch.setattr(sl3_hb_lag, "_cache", {})
    with pytest.raises(ComparisonFailure,
                       match="fails to intertwine products"):
        W.ell_comparison(sl3_hb_zero, sl3_hb_lag)


def patch_one_image(monkeypatch, change):
    """Make `q_transport` pass its images through change(images)."""
    true_transport = W.q_transport

    def transport(els, s1, s2):
        images = true_transport(els, s1, s2)
        change(images)
        return images

    monkeypatch.setattr(W, "q_transport", transport)


def test_ell_comparison_detects_a_map_that_is_not_injective(
        monkeypatch, sl3_hb_zero, sl3_hb_lag):
    """An image that repeats the image before it at the same degree makes
    the map fail to be injective on F_n H at that degree."""
    degrees = sl3_hb_zero.degrees
    k = next(k for k in range(1, len(degrees)) if degrees[k] == degrees[k - 1])

    def repeat(images):
        images[k] = images[k - 1]

    patch_one_image(monkeypatch, repeat)
    with pytest.raises(ComparisonFailure,
                       match=r"not injective on F_n H") as failure:
        W.ell_comparison(sl3_hb_zero, sl3_hb_lag)
    assert failure.value.degree == degrees[k] == 3


def test_ell_comparison_detects_an_image_outside_h(
        monkeypatch, sl3_hb_zero, sl3_hb_lag):
    """An image plus a monomial of its degree that is not in H_{ell2} still
    respects the filtration but lies outside H_{ell2}."""
    qb = sl3_hb_lag.qb
    k = sl3_hb_zero.degrees.index(3)
    outside = next(qb.element({i: F(1)})
                   for i in range(qb.dim_f(2), qb.dim_f(3))
                   if not sl3_hb_lag.contains(qb.element({i: F(1)}), 3))

    def leave_h(images):
        images[k] = images[k] + outside

    patch_one_image(monkeypatch, leave_h)
    with pytest.raises(ComparisonFailure,
                       match=r"image not in H_\{ell2\}") as failure:
        W.ell_comparison(sl3_hb_zero, sl3_hb_lag)
    assert failure.value.degree == 3


def test_multiplication_table_sl2(sl2_ctx):
    hb = W.h_basis(8, sl2_ctx)
    table = hb.multiplication_table()
    # 1, Omega-image, and its square: unit row/column is the identity
    assert table[(0, 0)] == {0: F(1)}
    assert table[(0, 1)] == {1: F(1)}
    om = hb.elements[1]
    sq = W.h_multiply(om, om, hb)
    assert hb.express(sq) == table[(1, 1)]
    # commutativity of sl2's H (one generator per degree): table is symmetric
    for (i, j), coeffs in table.items():
        assert table[(j, i)] == coeffs


def test_nested_ell_chain_sl4(sl4, sl4_211):
    """Natural maps along 0 < ell1 < ell2 (partial isotropic to Lagrangian)."""
    from walg.context import SliceContext
    from walg.liealg import lagrangian_auto
    triple = sl4_211.triple
    lag = lagrangian_auto(sl4, sl4_211.grading, sl4_211.chi)
    assert len(lag) == 2
    ctx1 = SliceContext(sl4, triple, [lag[0]])
    ctxL = SliceContext(sl4, triple, lag)
    hb0 = W.h_basis(4, sl4_211)
    hb1 = W.h_basis(4, ctx1)
    hbL = W.h_basis(4, ctxL)
    assert hb0.gr_dims == hb1.gr_dims == hbL.gr_dims == [1, 0, 4, 4, 11]
    # a failed clause raises
    W.ell_comparison(hb0, hb1)
    W.ell_comparison(hb1, hbL)
    W.ell_comparison(hb0, hbL)


# -- read-off from the echelon against the elimination it replaces ---------

def solve_express(hb, u):
    """Sparse coordinates of u on the representatives by one `solve` per
    call."""
    cols = [dense_coords(hb.qb, el) for el in hb.elements]
    M = SparseMatrix.from_columns(cols, rows=len(hb.qb.monomials))
    x = solve(M, dense_coords(hb.qb, u))
    return None if x is None else {k: c for k, c in enumerate(x) if c}


def subspace_contains(hb, u, n):
    return span_at(hb, n).contains(dense_coords(hb.qb, u, upto=n))


def rebuilt_span_h_basis(n_max, sctx):
    """(elements, degrees, subspaces) from the joint kernel of the ad-matrices
    of every n_graded vector on each F_n Q, elements chosen by rebuilding a
    Subspace after each one."""
    qb = W.QDegreeBasis(sctx, n_max)
    mats = [ad_matrix(x, qb, w) for x, w in sctx.pair.n_graded]
    chosen, elements, degrees, subspaces = [], [], [], []
    for n in range(n_max + 1):
        cnt = qb.dim_f(n)
        entries, off = {}, 0
        for M in mats:
            for (r, c), v in M.entries.items():
                if r < cnt and c < cnt:
                    entries[(off + r, c)] = v
            off += cnt
        K = kernel(SparseMatrix(off, cnt, entries))
        subspaces.append(K)
        padded = [tuple(r) + (F(0),) * (cnt - len(r)) for r in chosen]
        span = Subspace(cnt, padded)
        for v in K.basis:
            if not span.contains(v):
                padded.append(v)
                span = Subspace(cnt, padded)
                chosen.append(v)
                elements.append(qb.element(dict(enumerate(v))))
                degrees.append(n)
    return elements, degrees, subspaces


def random_combinations(hb, n, count, seed):
    rng = random.Random(seed)
    B = hb.sctx.basis
    out = []
    for _ in range(count):
        u = B.zero()
        for el in hb.elements[:hb.dim_f(n)]:
            u = u + F(rng.randint(-3, 3)) * el
        out.append(u)
    return out


def non_members(hb):
    """Elements of Q outside H: generator images, alone and added to H."""
    sctx = hb.sctx
    B = sctx.basis
    gens = [q_canonical_form(B.generator(k), sctx)
            for k in range(B.n_complement)]
    outside = [g for g in gens if not subspace_contains(
        hb, g, g.kazhdan_degree())]
    assert outside
    return outside + [g + el for g in outside for el in hb.elements[:3]]


@pytest.mark.parametrize("hb_name", ["sl3_hb_lag", "sl4_hb_211"])
def test_express_matches_solve(request, hb_name):
    hb = request.getfixturevalue(hb_name)
    products = [W.h_multiply(hb.elements[i], hb.elements[j], hb)
                for i, j in hb.product_pairs()
                if hb.degrees[i] + hb.degrees[j] <= 4]
    for u in products + random_combinations(hb, 4, 10, seed=31):
        assert hb.express(u) == solve_express(hb, u)
    for u in non_members(hb):
        assert solve_express(hb, u) is None
        with pytest.raises(WalgError):
            hb.express(u)


@pytest.mark.parametrize("hb_name", ["sl3_hb_lag", "sl4_hb_211"])
def test_contains_matches_subspace(request, hb_name):
    hb = request.getfixturevalue(hb_name)
    candidates = (hb.elements[:hb.dim_f(4)]
                  + random_combinations(hb, 4, 5, seed=32)
                  + non_members(hb))
    for u in candidates:
        for n in range(5):
            try:
                expected = subspace_contains(hb, u, n)
            except DegreeOverflow:
                with pytest.raises(DegreeOverflow):
                    hb.contains(u, n)
                continue
            assert hb.contains(u, n) == expected


def is_sparse_row(x, dim):
    """Whether x is a sparse row on dim coordinates: a dict with ascending
    keys in range(dim) and no zero value."""
    keys = list(x)
    return (type(x) is dict and keys == sorted(keys)
            and all(0 <= k < dim for k in keys) and all(x.values()))


@pytest.mark.parametrize("hb_name", ["sl2_hb", "sl3_hb_zero", "sl3_hb_lag",
                                     "sl3_hb_lag2", "sl3_hb_principal",
                                     "sl4_hb_211"])
def test_coordinates_are_sparse_rows(request, hb_name):
    """Coordinates on the forms and on the representatives are handed out
    as sparse rows: by the echelon, `express`, `form_products` and
    `multiplication_table`."""
    hb = request.getfixturevalue(hb_name)
    dim = len(hb.forms)
    read_off = [hb._echelon.coordinates(hb.qb.sparse_coords(f))
                for f in hb.forms]
    assert read_off == [{k: 1} for k in range(dim)]
    units = [hb.express(el) for el in hb.elements]
    assert units == [{k: 1} for k in range(dim)]
    rows = read_off + units
    rows += [hb.express(u) for u in random_combinations(hb, hb.n_max, 3,
                                                        seed=34)]
    rows += [x for _, _, x in hb.form_products(hb.product_pairs())]
    rows += list(hb.multiplication_table().values())
    assert all(is_sparse_row(x, dim) for x in rows)


@pytest.mark.parametrize("ctx_name,n_max", [("sl3_min_lag", 6),
                                            ("sl3_min_zero", 7),
                                            ("sl4_211", 4)])
def test_h_basis_matches_rebuilt_span(request, ctx_name, n_max):
    """The kernel of the generators of n_ell is the kernel of all of n_ell,
    with the same representatives and canonical subspaces."""
    sctx = request.getfixturevalue(ctx_name)
    hb = W.h_basis(n_max, sctx)
    subspaces = [span_at(hb, n) for n in range(n_max + 1)]
    assert (hb.elements, hb.degrees, subspaces) == \
        rebuilt_span_h_basis(n_max, sctx)


def bracket_closure(L, vectors):
    """The Lie subalgebra generated by vectors."""
    span = Subspace(L.dim, vectors)
    while True:
        grown = Subspace(L.dim, list(span.basis) + [
            L.bracket(u, v) for u in vectors for v in span.basis])
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("ctx_name,count", [
    ("sl2_ctx", 1), ("sl3_min_zero", 2), ("sl3_min_lag", 2),
    ("sl3_min_lag2", 2), ("sl3_min_conj", 2), ("sl3_principal", 2),
    ("sl4_22_conj", 4), ("sl4_211", 4), ("sl4_regular", 3)])
def test_chosen_generators_generate_n_ell(request, ctx_name, count):
    sctx = request.getfixturevalue(ctx_name)
    gens = W.n_ell_generators(sctx)
    assert len(gens) == count <= len(sctx.pair.n_graded)
    assert bracket_closure(sctx.lie, gens) == sctx.pair.n_ell


def n_ell_generators_reference(sctx):
    """`n_ell_generators` as one `Subspace` of [n_ell, n_ell] and the
    vectors chosen before, rebuilt for every candidate."""
    L = sctx.lie
    vectors = [v for v, _ in sctx.pair.n_graded]
    derived = [L.bracket(u, v) for i, u in enumerate(vectors) for v in vectors[i + 1:]]
    chosen = []
    for v in vectors:
        if not Subspace(L.dim, derived + chosen).contains(v):
            chosen.append(v)
    return chosen


@pytest.mark.parametrize("ctx_name", [
    "sl2_ctx", "sl3_min_zero", "sl3_min_lag", "sl3_min_lag2", "sl3_min_conj",
    "sl3_principal", "sl4_22_conj", "sl4_211", "sl4_regular"])
def test_n_ell_generators_match_subspace_rebuild(request, ctx_name):
    sctx = request.getfixturevalue(ctx_name)
    assert W.n_ell_generators(sctx) == n_ell_generators_reference(sctx)


def test_one_generator_is_not_enough(monkeypatch, tmp_path, sl3_min_zero):
    """Negative control: the invariants of the first generator alone are
    more than H_ell, so gr H no longer matches the slice series, and
    h_basis fails the theorem at the first degree where they differ."""
    first = W.n_ell_generators(sl3_min_zero)[:1]
    assert graded_dims(exact_kernels(sl3_min_zero, 6, first))[:4] == \
        [1, 1, 3, 5]
    assert sl3_min_zero.hilbert_slice(6)[:4] == [1, 0, 1, 2]
    monkeypatch.setattr(W, "n_ell_generators", lambda sctx: first)
    with pytest.raises(TheoremFailure,
                       match=r"^dim gr_1 H = 1 != 0 = dim C\[S\]_1$") as exc:
        W.h_basis(6, sl3_min_zero)
    assert exc.value.degree == 1
    assert_theorem_entry_fails(tmp_path, ["--ell", "zero", "--max-degree",
                                          "6"], 1)


def test_theorem_table_is_multiplication_table(sl3_hb_lag, sl2_hb):
    for hb in (sl3_hb_lag, sl2_hb):
        _, table = W.verify_theorem(hb)
        assert table == hb.multiplication_table()


def test_degree_beyond_range_overflows(sl2_ctx):
    hb = W.h_basis(2, sl2_ctx)
    with pytest.raises(DegreeOverflow):
        hb.contains(hb.elements[0], 4)
    with pytest.raises(DegreeOverflow):
        span_at(hb, 3)
    with pytest.raises(DegreeOverflow):
        hb.contains(hb.elements[0], -1)
    with pytest.raises(DegreeOverflow):
        span_at(hb, -1)
    assert hb.contains(hb.elements[0], 2)


def test_negative_degrees_are_empty(sl2_ctx):
    """F_k Q = F_k H = 0 for k < 0."""
    hb = W.h_basis(4, sl2_ctx)
    top = hb.elements[-1]
    assert top.kazhdan_degree() == 4
    with pytest.raises(DegreeOverflow):
        hb.qb.sparse_coords(top, upto=-1)
    assert hb.qb.dim_f(-1) == 0


def test_express_substitution_check(sl2_ctx):
    assert W.h_basis(4, sl2_ctx).express(sl2_ctx.basis.one()) == {0: F(1)}
    hb = W.h_basis(4, sl2_ctx)
    _, _, comb = hb._echelon.rows[1]
    comb[1] *= 2
    with pytest.raises(AssertionError):
        hb.express(hb.elements[1])


def test_one_read_off_per_product(monkeypatch, sl3_hb_zero, sl3_hb_lag):
    """No H product is read off: once the commutators and the
    representatives are built, a table reads off nothing."""
    calls = []
    read_off = linalg.Echelon.coordinates

    def counted(self, w):
        calls.append(w)
        return read_off(self, w)

    monkeypatch.setattr(linalg.Echelon, "coordinates", counted)
    for hb in (sl3_hb_zero, sl3_hb_lag):
        hb.commutators()
        assert hb.words is not None and hb.elements
    calls.clear()
    _, table = W.verify_theorem(sl3_hb_lag)
    assert calls == [] and len(table) > 0
    # one membership check per transported form, and none per product
    cmp = W.ell_comparison(sl3_hb_zero, sl3_hb_lag)
    assert len(calls) == len(sl3_hb_zero.forms) > 0 < cmp["mult_pairs"]


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name from here on; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("ctx_name,limit", [("sl3_min_zero", 80),
                                            ("sl3_min_lag", 72)])
def test_h_basis_tries_only_new_or_changed_rows(monkeypatch, request,
                                                ctx_name, limit):
    """40 representatives up to degree 10; trying every canonical row of
    every F_n H took 146 echelon extensions.  The representatives are
    chosen by `_representatives` on an echelon of its own, which it
    returns, when `elements` first builds the canonical view from the
    canonical subspaces of the forms, whether `h_basis` took the exact
    kernel up to top or `kernel_h_basis` up to 10.  Only the extensions of
    that echelon count."""
    sctx = request.getfixturevalue(ctx_name)
    choose = W._representatives
    echelons = []

    def recorded(subspaces):
        out = choose(subspaces)
        echelons.append(out[2])
        return out

    monkeypatch.setattr(W, "_representatives", recorded)
    calls = counting(monkeypatch, linalg.Echelon, "extend")
    for route in (W.h_basis, kernel_h_basis):
        echelons.clear()
        calls.clear()
        hb = route(10, sctx)
        assert len(hb.elements) == 40
        assert len(echelons) == 1
        assert len([c for c in calls if c[0] is echelons[0]]) <= limit


@pytest.mark.parametrize("ctx_name,n_max,count", [("sl4_22_conj", 6, 43),
                                                  ("sl3_min_lag", 10, 42),
                                                  ("sl3_min_zero", 10, 42)])
def test_h_basis_tries_each_kernel_vector_once(monkeypatch, request, ctx_name,
                                               n_max, count):
    """`_h_basis` extends its echelon once per ordered monomial of every
    degree in the generators of lower degree and once per kernel vector of
    degree <= top, dim F_top H of them: the vectors of lower degree lie in
    its span already.  Trying every canonical row of every F_d H took 10
    more extensions on sl4 [2,2] (conjugate), and 8 more on sl3 minimal."""
    sctx = request.getfixturevalue(ctx_name)
    top = max(sctx.slice_data.degrees)
    build = W._h_basis
    calls = counting(monkeypatch, linalg.Echelon, "extend")
    runs = []

    def recorded(qb, actions, t):
        before = len(calls)
        hb = build(qb, actions, t)
        runs.append((t, len(calls) - before))
        return hb

    monkeypatch.setattr(W, "_h_basis", recorded)
    hb = W.h_basis(n_max, sctx)
    (t, extensions), = runs
    products = [w for w in hb.words if sum(e for _, e in w) != 1]
    assert t == top
    assert extensions == len(products) + hb.dim_f(top) == count


@pytest.mark.parametrize("ctx_name,n_max", [("sl3_min_lag", 10),
                                            ("sl3_min_zero", 10),
                                            ("sl4_22_conj", 6)])
def test_h_basis_forms_each_word_once(monkeypatch, request, ctx_name, n_max):
    """One `_word_form` per ordered monomial: choosing the generators in a
    pass of its own formed the words of degree <= top twice, 42 forms for
    40 words on sl3 minimal and 43 for 36 on sl4 [2,2] (conjugate)."""
    sctx = request.getfixturevalue(ctx_name)
    calls = counting(monkeypatch, W, "_word_form")
    hb = W.h_basis(n_max, sctx)
    assert len(calls) == len(hb.words)


def test_h_basis_stacks_one_ad_block_per_generator(monkeypatch, sl4_regular):
    calls = counting(monkeypatch, W, "ad_action_matrix")
    W.h_basis(4, sl4_regular)
    assert len(calls) == 3 < len(sl4_regular.pair.n_graded) == 6


def test_one_left_action_per_right_factor(monkeypatch, sl3_hb_zero,
                                          sl3_hb_lag):
    """No product of H is formed in Q: once the commutators of both bases
    are built, the checks multiply by rewriting, and `ell_comparison`
    takes exactly one left action, the transport."""
    for hb in (sl3_hb_zero, sl3_hb_lag):
        hb.commutators()
    calls = counting(monkeypatch, W, "_left_action")
    W.verify_theorem(sl3_hb_lag)
    sl3_hb_lag.multiplication_table()
    assert calls == []
    transports = counting(monkeypatch, W, "q_transport")
    W.ell_comparison(sl3_hb_zero, sl3_hb_lag)
    assert len(calls) == len(transports) == 1


# -- h_basis against the exact kernel up to n_max (kernel_h_basis) ----------

# (context, degree above its top slice degree, target of the ell comparison)
PBW_CASES = [("sl2_ctx", 12, None), ("sl3_min_zero", 7, "sl3_min_lag"),
             ("sl3_min_lag", 7, None), ("sl3_min_lag2", 7, None),
             ("sl3_min_conj", 7, None), ("sl3_principal", 10, None),
             ("sl4_22_conj", 6, None), ("sl4_211", 5, None),
             ("sl4_regular", 9, None)]


# the sl4 [2,1,1] degrees up to its top slice degree, 4, where h_basis
# reads every degree off the exact kernel
TOP_CASES = [("sl4_211", 3, None), ("sl4_211", 4, None)]


@pytest.fixture(scope="module")
def built_routes():
    """(context name, degree) -> the bases of `routes`, built once."""
    return {}


def _routes(request, built):
    """(context, target context, h_basis and kernel_h_basis) of the case."""
    ctx_name, n, target = request.param
    sctx = request.getfixturevalue(ctx_name)
    other = sctx if target is None else request.getfixturevalue(target)
    if (ctx_name, n) not in built:
        built[(ctx_name, n)] = W.h_basis(n, sctx), kernel_h_basis(n, sctx)
    return (sctx, other) + built[(ctx_name, n)]


@pytest.fixture(scope="module", params=PBW_CASES, ids=lambda c: c[0])
def routes(request, built_routes):
    return _routes(request, built_routes)


@pytest.fixture(scope="module", params=PBW_CASES + TOP_CASES,
                ids=[c[0] for c in PBW_CASES] + ["sl4_211-3", "sl4_211-4"])
def all_routes(request, built_routes):
    return _routes(request, built_routes)


def exact_kernels(sctx, n, xs=None):
    """F_k H, k <= n, as the joint kernels on F_k Q of the ad matrices of
    xs (the generators of n_ell by default), built here from full
    matrices: one `kernel` of the first dim F_k Q columns of the stacked
    matrices per k, independent of the words and of `h_basis`."""
    qb = W.QDegreeBasis(sctx, n)
    xs = W.n_ell_generators(sctx) if xs is None else xs
    weight = dict(sctx.pair.n_graded)
    dim = len(qb.monomials)
    entries = {(k * dim + r, c): v for k, x in enumerate(xs)
               for (r, c), v in ad_matrix(x, qb, weight[x]).entries.items()}
    return [kernel(SparseMatrix(len(xs) * dim, cnt, {
        rc: v for rc, v in entries.items() if rc[1] < cnt}))
        for cnt in qb.counts]


def graded_dims(kernels):
    return [K.dim - (kernels[k - 1].dim if k else 0)
            for k, K in enumerate(kernels)]


def kernel_degrees(monkeypatch):
    """A list that gets, for each builder run from here on, the degree t
    up to which it takes the exact kernel."""
    degrees = []
    build = W._h_basis

    def recorded(qb, actions, t):
        degrees.append(t)
        return build(qb, actions, t)

    monkeypatch.setattr(W, "_h_basis", recorded)
    return degrees


def test_pbw_route_matches_kernel_route(routes):
    """h_basis takes the exact kernel up to top and the slice series above
    it; kernel_h_basis takes the exact kernel up to n_max.  Both are
    monomial bases of the same F_n H: the exact kernels, built here."""
    sctx, _, hb, kb = routes
    assert max(sctx.slice_data.degrees) < hb.n_max
    assert hb.words is not None and kb.words is not None
    kernels = exact_kernels(sctx, hb.n_max)
    assert kb.gr_dims == hb.gr_dims == graded_dims(kernels)
    assert (hb.elements, hb.degrees) == (kb.elements, kb.degrees)
    for n in range(hb.n_max + 1):
        assert span_at(hb, n) == span_at(kb, n) == kernels[n], n
    for form, d in zip(hb.forms, hb.degrees):
        assert kb.contains(form, d)


def test_kernel_route_up_to_the_top_degree(monkeypatch, sl4_211):
    """For n_max <= top the kernel on F_top Q is all of H, so h_basis
    reads every degree off the exact kernel, with no failed certificate;
    above top it takes the kernel up to top only."""
    top = max(sl4_211.slice_data.degrees)
    degrees = kernel_degrees(monkeypatch)
    for n in (top - 1, top):
        degrees.clear()
        hb, kb = W.h_basis(n, sl4_211), kernel_h_basis(n, sl4_211)
        assert degrees == [n, n]
        assert hb.words is not None
        assert (hb.elements, hb.degrees, hb.words) == \
            (kb.elements, kb.degrees, kb.words)
    degrees.clear()
    W.h_basis(top + 1, sl4_211)
    assert degrees == [top]


def test_rewriting_runs_on_integer_forms(routes):
    """The generator x word memo holds integer forms (den, ints), as the
    commutators it rewrites with are given."""
    _, _, hb, _ = routes
    list(hb.form_products(hb.product_pairs()))
    assert hb._cache
    for den, ints in hb._cache.values():
        assert type(den) is int and den > 0
        assert all(type(c) is int for c in ints.values())


def test_rewriting_table_matches_left_action(all_routes):
    """The rewritten products against products in Q by left action, read
    off once each: on the forms of h_basis, and on the representatives of
    kernel_h_basis, whose table is formed here."""
    sctx, _, hb, kb = all_routes
    pairs = list(hb.product_pairs())
    left = {(i, j): W._read_off(prod, hb.degrees[i] + hb.degrees[j], hb)
            for i, j, prod in W._products(pairs, hb.forms, sctx)}
    assert {(i, j): x for i, j, x in hb.form_products(pairs)} == left
    table = {(i, j): kb.coordinates(prod, kb.degrees[i] + kb.degrees[j])
             for i, j, prod in W._products(pairs, kb.elements, sctx)}
    assert None not in table.values()
    assert hb.multiplication_table() == table
    for u in random_combinations(kb, hb.n_max, 3, seed=33):
        assert hb.express(u) == kb.express(u)


def test_ell_comparison_either_route(routes):
    _, other, hb, kb = routes
    hb2 = W.h_basis(hb.n_max, other)
    reports = [W.ell_comparison(hb1, hb2) for hb1 in (hb, kb)]
    assert reports[0] == reports[1]
    assert reports[0]["mult_pairs"] == len(list(hb.product_pairs()))


def generator_forms(hb):
    """generator index -> (form, degree) of the one-letter words."""
    return {w[0][0]: (form, d) for w, form, d in
            zip(hb.words, hb.forms, hb.degrees) if len(w) == 1 and w[0][1] == 1}


def test_commutators_read_off_below_the_product_degree(routes):
    """[g_b, g_a] by the Ug route lies in F_{deg a + deg b - 2} Q, and its
    coordinates on the forms of that degree are the commutator table's."""
    sctx, _, hb, _ = routes
    gens = generator_forms(hb)
    index = {w: k for k, w in enumerate(hb.words)}
    comms = hb.commutators()
    assert set(comms) == {(b, a) for b in gens for a in gens if a < b and
                          gens[a][1] + gens[b][1] <= hb.n_max}
    for (b, a), comm in comms.items():
        (gb, db), (ga, da) = gens[b], gens[a]
        expected = q_canonical_form(gb * ga - ga * gb, sctx)
        assert (expected.kazhdan_degree() or 0) <= da + db - 2
        assert all(hb.degrees[index[w]] <= da + db - 2 for w in comm)
        got = sctx.basis.zero()
        for w, c in comm.items():
            got = got + c * hb.forms[index[w]]
        assert got == expected


@pytest.mark.parametrize("ctx_name,n", [("sl3_principal", 10),
                                        ("sl4_regular", 14)])
def test_commutators_vanish_for_regular_e(request, ctx_name, n):
    """H is commutative for regular e (Kostant): every commutator of the
    generators is zero, so the table is symmetric."""
    sctx = request.getfixturevalue(ctx_name)
    hb = W.h_basis(n, sctx)
    r = len(sctx.slice_data.degrees)
    comms = hb.commutators()
    assert hb.words is not None and len(comms) == r * (r - 1) // 2 > 0
    assert all(not comm for comm in comms.values())
    table = {(i, j): x for i, j, x in hb.form_products(hb.product_pairs())}
    assert all(table[(j, i)] == x for (i, j), x in table.items())


def assert_theorem_entry_fails(tmp_path, args, degree):
    """`walg run` on sl3 minimal, under the fault in place, gives a failed
    `theorem` entry with its degree as witness and exits 1."""
    out = tmp_path / "report.json"
    assert main(["run", "--algebra", "sl3", "--nilpotent", "minimal",
                 "--checks", "theorem", "--quiet", "--out", str(out)]
                + args) == 1
    entry, = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert entry["name"] == "theorem" and entry["status"] == "fail"
    assert entry["details"]["error"] == "TheoremFailure"
    assert entry["witness"] == {"degree": degree}


def test_certificate_fails_without_the_top_generator(monkeypatch, tmp_path,
                                                     sl3_min_lag):
    """Negative control: without the degree-4 generator the ordered
    monomials fall short of the exact kernel at degree 4, t = top: the
    theorem fails at degree 4, on the one builder run.  The fault: an
    echelon that refuses the kernel vectors of degree 4, so that no
    generator is chosen there."""
    qb = W.QDegreeBasis(sl3_min_lag, 7)
    assert max(sl3_min_lag.slice_data.degrees) == 4
    true_kernel, true_extend = W.kernel_vectors, linalg.Echelon.extend
    top_vectors = []

    def recorded(mats, ncols):
        vectors = true_kernel(mats, ncols)
        top_vectors.extend(v for f, v in vectors.items()
                           if qb.dim_f(3) <= f < qb.dim_f(4))
        return vectors

    def refusing(self, row):
        return not any(row is v for v in top_vectors) and true_extend(self, row)

    monkeypatch.setattr(W, "kernel_vectors", recorded)
    monkeypatch.setattr(linalg.Echelon, "extend", refusing)
    degrees = kernel_degrees(monkeypatch)
    with pytest.raises(TheoremFailure, match="against the bound") as exc:
        W.h_basis(7, sl3_min_lag)
    assert exc.value.degree == 4
    assert degrees == [4]
    assert len(top_vectors) == 2         # dim gr_4 H
    assert_theorem_entry_fails(
        tmp_path, ["--ell", "lagrangian-auto", "--max-degree", "7"], 4)


def test_killed_clause_runs_only_above_top(monkeypatch, sl3_min_lag):
    """Up to t = top the exact kernel decides that the forms lie in H, so
    ad x is applied, for each generator x of n_ell, only to the forms
    above top; at t = n_max to none."""
    kills = counting(monkeypatch, W.AdColumns, "kills")
    hb = W.h_basis(10, sl3_min_lag)
    top = max(sl3_min_lag.slice_data.degrees)
    above = sum(d > top for d in hb.degrees)
    n_gens = len(W.n_ell_generators(sl3_min_lag))
    assert (above, n_gens) == (34, 2)
    assert len(kills) == above * n_gens
    kills.clear()
    kernel_h_basis(6, sl3_min_lag)
    assert kills == []


def test_ad_entry_above_its_weight_raises(monkeypatch, sl3_min_zero):
    """Negative control: an ad x entry of degree k in a column of degree k
    breaks the filtration law deg ad x(m) <= deg m + w, w <= -1, and is
    caught as the column is built, at t = top and at t = n_max."""
    qb = W.QDegreeBasis(sl3_min_zero, 6)
    mono = qb.monomials[qb.dim_f(2)]  # the first column of degree 3
    true_image = W.AdColumns._image

    def raised(self, m):
        den, ints = true_image(self, m)
        return (den, {**ints, mono: den}) if m == mono else (den, ints)

    monkeypatch.setattr(W.AdColumns, "_image", raised)
    for route in (W.h_basis, kernel_h_basis):
        with pytest.raises(WalgError, match="takes degree 3 to degree 3"):
            route(6, sl3_min_zero)


def symbol_bounds(qb, mats, weights):
    """Upper bounds for dim gr_k H, k <= n_max, by elimination: the oracle
    for the slice series that `h_basis` takes as its bound.

    x in n_ell of ad h weight w maps F_k Q into F_{k+w} Q, so its matrix
    has no entry above degree k + w in a column of degree k (a WalgError
    otherwise), and its entries of degree exactly k + w form the symbol
    block gr_k Q -> gr_{k+w} Q.  The symbol of an element of F_k H is
    killed by every block, so dim gr_k H is at most the dimension of their
    joint kernel: one elimination of the stacked blocks per degree.
    """
    basis = qb.sctx.basis
    qdeg = [basis.monomial_degree(m) for m in qb.monomials]
    blocks = [{} for _ in range(qb.n + 1)]
    for i, (M, w) in enumerate(zip(mats, weights)):
        for (r, c), v in M.entries.items():
            k = qdeg[c]
            if qdeg[r] > k + w:
                raise WalgError(f"ad action of weight {w} takes degree {k} "
                                f"to degree {qdeg[r]}")
            if qdeg[r] == k + w:
                blocks[k].setdefault((i, r), {})[c] = v
    return [qb.dim_f(k) - qb.dim_f(k - 1)
            - linalg.rank_of_rows(list(block.values()), qb.dim_f(k))
            for k, block in enumerate(blocks)]


@pytest.mark.parametrize("case", PBW_CASES, ids=lambda c: c[0])
def test_symbol_bounds_are_the_slice_series(request, case):
    """The joint kernels of the symbol blocks of the generators' ad matrices
    have the dimensions of C[S], degree by degree: the bound h_basis
    takes from the slice series, computed by elimination."""
    ctx_name, n, _ = case
    sctx = request.getfixturevalue(ctx_name)
    qb = W.QDegreeBasis(sctx, n)
    weight = dict(sctx.pair.n_graded)
    xs = W.n_ell_generators(sctx)
    mats = [ad_matrix(x, qb, weight[x]) for x in xs]
    assert symbol_bounds(qb, mats, [weight[x] for x in xs]) == \
        sctx.hilbert_slice(n)


@pytest.fixture(scope="module")
def sl4_31(sl4):
    e, h, f = partition_triple(4, [3, 1])
    return build_context(sl4, e, "zero", h=h, f=f)


@pytest.fixture(scope="module")
def sl5_min():
    e, h, f = highest_root_triple(5)
    return build_context(make_sln(5), e, "zero", h=h, f=f)


@pytest.mark.parametrize("ctx_name", [c[0] for c in PBW_CASES]
                         + ["sl4_31", "sl5_min"])
def test_transversality_rank_holds(request, ctx_name):
    """The constant parts A_x over the n_ell basis and the slice directions
    form a basis of the complement directions: one row each."""
    sctx = request.getfixturevalue(ctx_name)
    rows = sctx.transversality_rows()
    nc = sctx.basis.n_complement
    assert len(rows) == len(sctx.pair.n_graded) + len(sctx.slice_data.degrees) == nc
    assert linalg.rank_of_rows(rows, nc) == nc
    assert sctx.is_transversal()


def test_certificate_fails_without_transversality(monkeypatch, sl3):
    """Negative control: with one n_ell row of the transversality matrix
    replaced by another the rank falls short, so the bound above top is
    not proved: the theorem fails at top + 1, naming the rank, and no
    builder runs.  The context is built here: the rank is kept on it once
    computed."""
    e, h, f = highest_root_triple(3)
    sctx = build_context(sl3, e, "lagrangian-auto", h=h, f=f)
    true_rows = type(sctx).transversality_rows

    def repeated(ctx):
        rows = true_rows(ctx)
        return [rows[0], rows[0]] + rows[2:]

    monkeypatch.setattr(type(sctx), "transversality_rows", repeated)
    assert not sctx.is_transversal()
    degrees = kernel_degrees(monkeypatch)
    with pytest.raises(TheoremFailure, match="no transversality rank") as exc:
        W.h_basis(7, sctx)
    assert exc.value.degree == max(sctx.slice_data.degrees) + 1 == 5
    assert degrees == []


def test_a_failed_count_is_a_theorem_failure(monkeypatch, sl3_min_lag):
    """Negative control: a slice series one short at degree top + 1 fails
    the count there, before any form of that degree is built: the theorem
    fails at top + 1, on the one builder run, and no ad column is built
    twice on the way."""
    top = max(sl3_min_lag.slice_data.degrees)
    true_series = type(sl3_min_lag).hilbert_slice

    def short(ctx, n):
        series = list(true_series(ctx, n))
        if n > top:
            series[top + 1] -= 1
        return series

    monkeypatch.setattr(type(sl3_min_lag), "hilbert_slice", short)
    true_image = W.AdColumns._image
    built = []

    def recorded(self, mono):
        built.append((tuple(self.x), mono))
        return true_image(self, mono)

    monkeypatch.setattr(W.AdColumns, "_image", recorded)
    degrees = kernel_degrees(monkeypatch)
    with pytest.raises(TheoremFailure, match="against the bound") as exc:
        W.h_basis(7, sl3_min_lag)
    assert exc.value.degree == top + 1
    assert degrees == [top]
    assert len(built) == len(set(built)) > 0


def test_certificate_fails_on_a_form_outside_h(monkeypatch, tmp_path,
                                              sl3_min_lag):
    """Negative control: a word form of degree top + 1 moved off H by a
    monomial of its degree is not killed by ad x at t = top, and the
    theorem fails at that degree, on the one builder run."""
    top = max(sl3_min_lag.slice_data.degrees)
    good = W.h_basis(7, sl3_min_lag)
    word = next(w for w, d in zip(good.words, good.degrees) if d == top + 1)
    mono = good.qb.monomials[good.qb.dim_f(top)]  # the first of degree top + 1
    bad = good.forms[good.words.index(word)] + UEAElement(
        sl3_min_lag.basis, {mono: F(1)})
    assert not kernel_h_basis(7, sl3_min_lag).contains(bad, top + 1)
    true_form = W._word_form

    def moved(basis, word_forms, w):
        form = true_form(basis, word_forms, w)
        return form + UEAElement(basis, {mono: F(1)}) if w == word else form

    monkeypatch.setattr(W, "_word_form", moved)
    degrees = kernel_degrees(monkeypatch)
    with pytest.raises(TheoremFailure, match="outside H") as exc:
        W.h_basis(7, sl3_min_lag)
    assert exc.value.degree == top + 1
    assert degrees == [top]
    assert_theorem_entry_fails(
        tmp_path, ["--ell", "lagrangian-auto", "--max-degree", "7"], top + 1)


@pytest.mark.parametrize("ctx_name,n,saves", [("sl3_min_lag", 10, True),
                                              ("sl4_211", 6, True),
                                              ("sl3_principal", 12, False)])
def test_ad_columns_only_where_forms_touch(monkeypatch, request, ctx_name, n,
                                           saves):
    """At t = top every column of F_top Q is built once, for the
    kernel there, and above F_top only the columns of the monomials some
    form touches and of their suffixes (a column is built by the Leibniz
    rule from its suffix's), each once; none is built twice.  On sl3
    regular the forms touch every monomial, so no column is saved there."""
    sctx = request.getfixturevalue(ctx_name)
    top = max(sctx.slice_data.degrees)
    true_image = W.AdColumns._image
    built = []

    def recorded(self, mono):
        built.append((id(self), mono))
        return true_image(self, mono)

    def suffixes(m):
        while m:
            g, e = m[0]
            m = ((g, e - 1),) + m[1:] if e > 1 else m[1:]
            yield m

    monkeypatch.setattr(W.AdColumns, "_image", recorded)
    hb = W.h_basis(n, sctx)
    assert hb.words is not None
    assert len(built) == len(set(built))
    touched = {m for form in hb.forms for m in form.terms}
    needed = touched | {s for m in touched for s in suffixes(m)}
    degree = sctx.basis.monomial_degree
    above = {m for _, m in built if degree(m) > top}
    assert above == {m for m in needed if degree(m) > top}
    r = len(W.n_ell_generators(sctx))
    assert len(built) == r * (hb.qb.dim_f(top) + len(above))
    assert (len(built) < r * len(hb.qb.monomials)) == saves


@pytest.mark.parametrize("ctx_name,n", [
    ("sl2_ctx", 6), ("sl3_min_zero", 5), ("sl3_min_lag", 5),
    ("sl3_min_lag2", 5), ("sl3_min_conj", 5), ("sl3_principal", 6),
    ("sl4_22_conj", 4), ("sl4_211", 4), ("sl4_regular", 6)])
def test_trusted_matrices_match_the_checked_constructor(request, ctx_name, n):
    """The ad and left action matrices and the CE differentials are built
    on trusted entries (`SparseMatrix._of`); the checked constructor, which
    range-checks every entry and drops zeros, gives the same matrices."""
    sctx = request.getfixturevalue(ctx_name)
    qb = W.QDegreeBasis(sctx, n)
    mats = [W.ad_action_matrix(W.AdColumns(x, sctx, w), qb, upto)
            for x, w in sctx.pair.n_graded for upto in (n, n - 1)]
    mats += [W.left_action_matrix(x, qb, sctx) for x, _ in sctx.pair.a_graded]
    i_max = min(2, len(sctx.pair.n_graded))
    mats += [d for _, diffs in W.ce_blocks(i_max, n, sctx).values() for d in diffs]
    assert mats
    for M in mats:
        assert M == SparseMatrix(M.rows, M.cols, M.entries)


# -- the integer echelon against the Fraction one it replaces ----------------

def axpy(y, a, x):
    """y += a * x in place, dropping zeros."""
    for j, v in x.items():
        s = y.get(j, F(0)) + a * v
        if s:
            y[j] = s
        else:
            y.pop(j, None)


class FractionEchelon:
    """The echelon on `Fraction` rows with unit pivots that `linalg.Echelon`
    replaced: rows are (pivot, vector, combination)."""

    def __init__(self):
        self.rows = []
        self.added = []

    def reduce(self, w):
        residual = dict(w)
        coeffs = []
        for p, row, _ in self.rows:
            c = residual.get(p, F(0))
            coeffs.append(c)
            if c:
                axpy(residual, -c, row)
        return coeffs, residual

    def extend(self, w):
        coeffs, residual = self.reduce(w)
        if not residual:
            return False
        comb = {len(self.added): F(1)}
        for c, (_, _, comb_r) in zip(coeffs, self.rows):
            if c:
                axpy(comb, -c, comb_r)
        p = max(residual)
        inv = 1 / residual[p]
        row = {j: v * inv for j, v in residual.items()}
        comb = {i: v * inv for i, v in comb.items()}
        for _, row_s, comb_s in self.rows:
            a = row_s.get(p)
            if a is not None:
                axpy(row_s, -a, row)
                axpy(comb_s, -a, comb)
        self.rows.append((p, row, comb))
        self.added.append(dict(w))
        return True

    def coordinates(self, w):
        xs = {}
        for p, _, comb in self.rows:
            if p in w:
                axpy(xs, w[p], comb)
        x = dict(sorted(xs.items()))
        back = {}
        for k, xk in x.items():
            axpy(back, xk, self.added[k])
        return x if back == w else None


rationals = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))


def combination(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        axpy(out, c, v)
    return out


@st.composite
def vector_streams(draw):
    """(vectors to add, vectors to read off): random sparse rational
    vectors mixed with zero, duplicate and dependent ones."""
    ncols = draw(st.integers(1, 8))
    sparse = st.dictionaries(st.integers(0, ncols - 1), rationals,
                             min_size=1, max_size=ncols).map(
        lambda d: {j: c for j, c in d.items() if c})
    small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))

    def dependent(pool):
        k = draw(st.integers(1, min(3, len(pool))))
        return combination(draw(st.lists(small, min_size=k, max_size=k)),
                           draw(st.lists(st.sampled_from(pool), min_size=k,
                                         max_size=k)))

    added = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["random"] * 3 + ["zero", "duplicate",
                                                      "dependent"]))
        if kind == "zero":
            added.append({})
        elif kind == "random" or not added:
            added.append(draw(sparse))
        elif kind == "duplicate":
            added.append(dict(draw(st.sampled_from(added))))
        else:
            added.append(dependent(added))
    queries = [draw(sparse) for _ in range(2)] + [{}]
    if added:
        queries += [dependent(added) for _ in range(3)]
    return added, queries


def as_rationals(v, den):
    return {j: F(c, den) for j, c in v.items()}


@settings(max_examples=150, deadline=None)
@given(vector_streams())
def test_integer_echelon_matches_fraction_echelon(stream):
    added, queries = stream
    ech, ref = linalg.Echelon(), FractionEchelon()
    for w in added:
        assert ech.extend(w) == ref.extend(w)
        assert [p for p, _, _ in ech.rows] == [p for p, _, _ in ref.rows]
        for (p, row, comb), (_, ref_row, ref_comb) in zip(ech.rows, ref.rows):
            assert row[p] > 0
            assert as_rationals(row, row[p]) == ref_row
            assert as_rationals(comb, row[p]) == ref_comb
    for w in queries:
        assert ech.coordinates(w) == ref.coordinates(w)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.just(F(0)), rationals),
                          st.dictionaries(st.tuples(st.integers(0, 3)),
                                          rationals, max_size=4)),
                max_size=6),
       rationals)
def test_transported_sum_matches_fraction_sum(terms, bump):
    """The integer sum sum_k x_k image_k of `ell_comparison` against the
    `Fraction` accumulation it replaced."""
    terms = [(x, {m: c for m, c in img.items() if c}) for x, img in terms]
    expected = combination(*zip(*terms)) if terms else {}
    total = backend.combine([(x, backend.int_form(img)) for x, img in terms if x])
    assert linalg._equals(total, expected)
    if bump:
        m = next(iter(expected), ((4,),))
        assert not linalg._equals(total, combination([1, 1],
                                                     [expected, {m: bump}]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(rationals, st.integers(1, 60),
                          st.dictionaries(st.tuples(st.integers(0, 3)),
                                          st.integers(-60, 60), max_size=4),
                          st.integers(1, 6)),
                max_size=6))
def test_one_integer_form_per_ad_column(terms):
    """`backend.lowest_form` of a sum, as `AdColumns._image` takes it, is
    the `int_form` of its value that it replaced, on integer numerators
    (where it is `_reduced`'s form) and on the Fraction numerators a step
    on a basis with a non-integral constant can return."""
    ints = backend.combine([(c, (den, v)) for c, den, v, _ in terms])
    expected = backend.int_form(backend._value(ints))
    assert backend.lowest_form(ints) == backend._reduced(ints) == expected
    fractions = backend.combine([(c, (den, {m: F(x, q) for m, x in v.items()}))
                                 for c, den, v, q in terms])
    assert backend.lowest_form(fractions) == \
        backend.int_form(backend._value(fractions))


COLUMN_CASES = [("sl3_min_zero", 10), ("sl3_min_lag", 10), ("sl4_211", 7),
                ("sl4_22_conj", 8)]


@pytest.mark.parametrize("ctx_name,n", COLUMN_CASES,
                         ids=[c[0] for c in COLUMN_CASES])
def test_leibniz_columns_match_two_sided_columns(request, ctx_name, n):
    """The column of ad x on every monomial of F_n Q, by the Leibniz rule
    from its suffix's (`AdColumns`), against q(x m) - q(m x) taken whole
    (`reference.TwoSidedColumns`), for every basis vector x of n_ell.  The
    benchmark's conjugate has half-integer structure constants and a chi
    value of 1/2, so there the steps return Fractions and the columns take
    the Fraction path of `backend.lowest_form`."""
    sctx = request.getfixturevalue(ctx_name)
    qb = W.QDegreeBasis(sctx, n)
    if ctx_name == "sl4_22_conj":
        assert F(1, 2) in sctx.basis.chi_vals
    for x, w in sctx.pair.n_graded:
        leibniz, two_sided = W.AdColumns(x, sctx, w), TwoSidedColumns(x, sctx)
        for mono in qb.monomials:
            assert leibniz.column(mono) == two_sided.column(mono), mono


# -- the left action on Q against the Ug route -------------------------------

KERNEL_CONTEXTS = ["sl3_min_lag", "sl3_min_zero", "sl4_22_conj"]
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def pbw_elements(basis):
    """Elements of Ug over `basis`, a-generators included: zero, the unit,
    rational constants and sums of up to three ordered monomials of length
    at most four, with coefficients of denominator at most 6."""
    factor = st.tuples(st.integers(0, basis.lie.dim - 1), st.integers(1, 2))
    mono = st.lists(factor, max_size=3, unique_by=lambda f: f[0]).map(
        lambda fs: tuple(sorted(fs))).filter(
        lambda m: sum(e for _, e in m) <= 4)
    coeff = small_rationals.filter(bool)
    terms = st.one_of(st.just({}), st.just({(): F(1)}),
                      coeff.map(lambda c: {(): c}),
                      st.dictionaries(mono, coeff, max_size=3))
    return terms.map(lambda t: UEAElement(basis, t))


@pytest.mark.parametrize("ctx_name", KERNEL_CONTEXTS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_q_product_matches_ug_route(request, ctx_name, data):
    sctx = request.getfixturevalue(ctx_name)
    B = sctx.basis
    a = data.draw(pbw_elements(B))
    b = data.draw(pbw_elements(B))
    assert W.q_product(a, b, sctx).terms == q_canonical_form(a * b, sctx).terms
    # H products: the operands are canonical Q elements
    qa, qb = q_canonical_form(a, sctx), q_canonical_form(b, sctx)
    assert W.q_product(qa, qb, sctx).terms == \
        q_canonical_form(qa * qb, sctx).terms
    assert W.q_product(B.one(), b, sctx) == qb
    assert W.q_product(a, B.one(), sctx) == qa
    assert W.q_product(a, B.zero(), sctx).is_zero()
    assert W.q_product(B.zero(), b, sctx).is_zero()


@pytest.mark.parametrize("ctx_name", KERNEL_CONTEXTS)
def test_q_product_of_representatives_matches_ug_route(request, ctx_name):
    sctx = request.getfixturevalue(ctx_name)
    hb = W.h_basis(4, sctx)
    for i, j in hb.product_pairs():
        a, b = hb.elements[i], hb.elements[j]
        assert W.q_product(a, b, sctx).terms == \
            q_canonical_form(a * b, sctx).terms


def ad_action_matrix_ug(x, qb, sctx):
    """`W.ad_action_matrix` by straightening x v - v x in Ug."""
    basis = sctx.basis
    xe = basis.element_from_ambient(x)
    entries = {}
    for j, mono in enumerate(qb.monomials):
        v = UEAElement(basis, {mono: F(1)})
        for m, c in q_canonical_form(xe * v - v * xe, sctx).terms.items():
            entries[(qb.index[m], j)] = c
    return entries


def left_action_matrix_ug(x, qb, sctx):
    """`W.left_action_matrix` by straightening x v in Ug."""
    basis = sctx.basis
    xe = basis.element_from_ambient(x)
    entries = {}
    for j, mono in enumerate(qb.monomials):
        v = UEAElement(basis, {mono: F(1)})
        img = q_canonical_form(xe * v, sctx) - sctx.chi(x) * v
        for m, c in img.terms.items():
            entries[(qb.index[m], j)] = c
    return entries


@pytest.mark.parametrize("ctx_name, n", [("sl3_min_lag", 6), ("sl3_min_zero", 6),
                                         ("sl4_22_conj", 4)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_action_matrices_match_ug_route(request, ctx_name, n, data):
    """Columns by one generator step against Ug straightening, for random
    rational x in n_ell (the ad action) and in a (the left action)."""
    sctx = request.getfixturevalue(ctx_name)
    dim = sctx.lie.dim
    qb = W.QDegreeBasis(sctx, n)

    def combination(vectors):
        cs = data.draw(st.lists(small_rationals, min_size=len(vectors),
                                max_size=len(vectors)))
        return tuple(sum((c * v[k] for c, v in zip(cs, vectors)), F(0))
                     for k in range(dim))

    x = combination([v for v, _ in sctx.pair.n_graded])
    weight = max(w for _, w in sctx.pair.n_graded)
    assert ad_matrix(x, qb, weight).entries == \
        ad_action_matrix_ug(x, qb, sctx)
    y = combination([v for v, _ in sctx.pair.a_graded])
    assert W.left_action_matrix(y, qb, sctx).entries == \
        left_action_matrix_ug(y, qb, sctx)


@pytest.fixture(scope="module")
def sl4_22_conj_zero(sl4, sl4_22_conj):
    t = sl4_22_conj.triple
    return build_context(sl4, t.e, "zero", h=t.h, f=t.f)


@pytest.mark.parametrize("src, dst", [("sl3_min_zero", "sl3_min_lag"),
                                      ("sl3_min_lag", "sl3_min_zero"),
                                      ("sl4_22_conj_zero", "sl4_22_conj"),
                                      ("sl3_min_conj", "sl3_min_lag")])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_q_transport_matches_ug_route(request, src, dst, data):
    """One transport pass over several elements against rewriting each
    over the target basis in Ug and reducing it there.  q(u) over the
    second basis is defined for every u in Ug, so the last pair, two
    nilpotents of one algebra, is a valid case too: there two generators
    of the first basis have coefficients in thirds over the second."""
    sctx1, sctx2 = request.getfixturevalue(src), request.getfixturevalue(dst)
    us = [data.draw(pbw_elements(sctx1.basis)) for _ in range(3)]
    us.append(sctx1.basis.one())
    images = W.q_transport(us, sctx1, sctx2)
    assert [img.terms for img in images] == [
        q_canonical_form(convert_element(u, sctx2.basis), sctx2).terms
        for u in us]


def test_q_transport_needs_one_algebra(sl2_ctx, sl3_min_lag):
    with pytest.raises(WalgError):
        W.q_transport([sl2_ctx.basis.one()], sl2_ctx, sl3_min_lag)


def substitution_reference(sub, G):
    """`Substitution.__call__` before integer forms: monomial images built
    from their prefixes in Fraction arithmetic, and summed with Fraction
    accumulation."""
    memo = {(): {(): F(1)}}

    def image(m):
        if m not in memo:
            i, e = m[-1]
            prefix = m[:-1] if e == 1 else m[:-1] + ((i, e - 1),)
            memo[m] = poisson.poly_mul(image(prefix), sub.images[i].terms)
        return memo[m]

    out = {}
    for m, c in G.terms.items():
        for m2, c2 in image(m).items():
            s = out.get(m2, F(0)) + c * c2
            if s:
                out[m2] = s
            elif m2 in out:
                del out[m2]
    return KazhdanPolynomial(sub.target, out)


def chart_polynomials(chart, max_degree):
    monos = poisson.enumerate_monomials(chart.degrees, max_degree)
    return st.one_of(
        st.just({}), small_rationals.map(lambda c: {(): c}),
        st.dictionaries(st.sampled_from(monos), small_rationals, max_size=5)
    ).map(lambda terms: KazhdanPolynomial(chart, terms))


@pytest.mark.parametrize("ctx_name", ["sl3_min_conj", "sl4_22_conj"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitution_matches_fraction_reference(request, ctx_name, data):
    sctx = request.getfixturevalue(ctx_name)
    for sub in (sctx.slice_data.nu, sctx.reduction.lift_map()):
        G = data.draw(chart_polynomials(sub.source, 6))
        assert sub(G).terms == substitution_reference(sub, G).terms


# the one-pass `poisson` check against the per-pair oracle


LAGRANGIAN_CASES = [("sl2_ctx", 12), ("sl3_min_lag", 6), ("sl3_min_lag2", 6),
                    ("sl3_min_conj", 6), ("sl3_principal", 8),
                    ("sl4_22_conj", 6), ("sl4_regular", 8)]


def poisson_pairs(hb):
    """The pairs the `poisson` check compares, as `cli.check_poisson`
    lists them."""
    return [(i, j) for i, j in hb.product_pairs()
            if i <= j and hb.degrees[i] and hb.degrees[j]]


def run_route(route):
    """(the (i, j, agrees) the route gave, in order, up to the first pair
    that disagrees, as the check stops there, and the type, message and
    degree of what it raised, or None)."""
    seen = []
    try:
        for out in route():
            seen.append(out)
            if not out[2]:
                break
    except WalgError as exc:
        return seen, (type(exc).__name__, str(exc), getattr(exc, "degree", None))
    return seen, None


def one_pass(hb, pairs):
    return lambda: W.gr_commutators_vs_poisson(hb, pairs)


def per_pair(hb, pairs):
    return lambda: ((i, j, gr_commutator_vs_poisson(hb.elements[i],
                                                    hb.elements[j], hb))
                    for i, j in pairs)


@pytest.mark.parametrize("ctx_name,n", LAGRANGIAN_CASES,
                         ids=[c[0] for c in LAGRANGIAN_CASES])
def test_one_pass_poisson_matches_per_pair_route(request, ctx_name, n):
    sctx = request.getfixturevalue(ctx_name)
    assert sctx.is_lagrangian
    hb = W.h_basis(n, sctx)
    pairs = poisson_pairs(hb)
    got = run_route(one_pass(hb, pairs))
    assert got == run_route(per_pair(hb, pairs))
    assert got == ([(i, j, True) for i, j in pairs], None) and pairs


def first_failure(hb, pairs):
    """The outcome of both routes, asserted equal, with a failure."""
    got = run_route(one_pass(hb, pairs))
    assert got == run_route(per_pair(hb, pairs))
    seen, raised = got
    assert raised is not None or not seen[-1][2]
    return got


@pytest.fixture
def sl4_22_hb(sl4_22_conj):
    """A fresh basis of the benchmark's conjugate at degree 6, with its
    representatives built, so that no fault below reaches them."""
    hb = W.h_basis(6, sl4_22_conj)
    assert hb.elements
    return hb


def test_a_wrong_lift_fails_both_routes_at_one_pair(monkeypatch, sl4_22_hb):
    """Negative control: a lift doubled on the symbols of degree 4 still
    restricts to the slice, but brackets wrongly; both routes stop at the
    same first pair."""
    lift = poisson.invariant_lift

    def doubled(F, red):
        G = lift(F, red)
        return 2 * G if F.kazhdan_degree() == 4 else G

    monkeypatch.setattr(poisson, "invariant_lift", doubled)
    pairs = poisson_pairs(sl4_22_hb)
    seen, raised = first_failure(sl4_22_hb, pairs)
    assert raised is None and 0 < len(seen) < len(pairs)
    i, j, _ = seen[-1]
    assert 4 in (sl4_22_hb.degrees[i], sl4_22_hb.degrees[j])


def test_a_lift_that_does_not_restrict_back_fails_both_routes(monkeypatch,
                                                              sl4_22_conj,
                                                              sl4_22_hb):
    red = sl4_22_conj.reduction
    doubled = [2 * T for T in red.coordinate_lifts()]
    monkeypatch.setattr(red, "_lifts", doubled)
    # the lift map is built once, so it is built again on the doubled lifts
    monkeypatch.setattr(red, "_lift_map", None)
    seen, raised = first_failure(sl4_22_hb, poisson_pairs(sl4_22_hb))
    assert seen == [] and raised == (
        "LiftFailure", "lift does not restrict back to its input", None)


def test_a_commutator_off_the_degree_law_fails_both_routes(monkeypatch,
                                                           sl4_22_hb):
    """Negative control: products with one degree-2 representative on the
    right taken twice over, in Q for the per-pair route and by rewriting
    for the one-pass route, on the relations of the generators built
    before; the commutators with it keep their top degree, and both routes
    raise at the same first pair."""
    sl4_22_hb.commutators()
    k = sl4_22_hb.degrees.index(2) + 1
    target = sl4_22_hb.elements[k].terms
    target_words = sl4_22_hb._canonical_view()[2][k]
    left_action, word_map = W._left_action, backend.word_map

    def faulty(basis, steps, base):
        if base == target:
            base = {m: 2 * c for m, c in base.items()}
        return left_action(basis, steps, base)

    def faulty_words(base, relations, cache):
        # by identity: the expression is one word, which the rewriting's
        # inner maps take as a base too
        if base is target_words:
            base = {w: 2 * c for w, c in base.items()}
        return word_map(base, relations, cache)

    monkeypatch.setattr(W, "_left_action", faulty)
    monkeypatch.setattr(backend, "word_map", faulty_words)
    pairs = poisson_pairs(sl4_22_hb)
    seen, raised = first_failure(sl4_22_hb, pairs)
    assert raised == ("WalgError",
                      "commutator violates the filtration degree law", None)
    i, j = pairs[len(seen)]
    assert k in (i, j) and i != j and all(k not in p or p == (k, k)
                                          for p in pairs[:len(seen)])


def test_one_pass_poisson_forms_no_product_in_q(monkeypatch, sl4_22_hb):
    """Once the representatives and the relations of the generators are
    built, the check multiplies only by rewriting: no left action on Q."""
    sl4_22_hb.commutators()
    actions = counting(monkeypatch, W, "_left_action")
    pairs = poisson_pairs(sl4_22_hb)
    assert all(ok for _, _, ok in W.gr_commutators_vs_poisson(sl4_22_hb, pairs))
    assert actions == []


def test_one_pass_poisson_lifts_each_element_once(monkeypatch, sl4_22_hb):
    """13 elements in the 36 pairs of the benchmark's conjugate: one lift
    per element, where the per-pair route took two per pair."""
    pairs = poisson_pairs(sl4_22_hb)
    lifts = counting(monkeypatch, poisson, "invariant_lift")
    assert all(ok for _, _, ok in W.gr_commutators_vs_poisson(sl4_22_hb, pairs))
    assert len(pairs) == 36
    assert len(lifts) == len({k for p in pairs for k in p}) == 13


@pytest.mark.parametrize("ctx_name,n", [("sl3_min_lag", 7), ("sl3_principal", 10),
                                        ("sl4_22_conj", 6)])
def test_commutators_take_one_left_action_product_per_pair(monkeypatch,
                                                           request, ctx_name,
                                                           n):
    """q(g_a g_b) is the form of the word g_a g_b, so `commutators` forms
    only q(g_b g_a) in Q: one product per pair, r(r-1)/2 of them when every
    pair is in range, with one left action per right factor g_a."""
    sctx = request.getfixturevalue(ctx_name)
    hb = W.h_basis(n, sctx)
    products = W._products
    formed = []

    def counted(pairs, elements, sctx):
        for out in products(pairs, elements, sctx):
            formed.append(out[:2])
            yield out

    monkeypatch.setattr(W, "_products", counted)
    actions = counting(monkeypatch, W, "_left_action")
    comms = hb.commutators()
    assert formed == list(comms) and actions
    assert len(actions) == len({a for _, a in comms})
    degrees = sorted(sctx.slice_data.degrees)
    r = len(degrees)
    if degrees[-1] + degrees[-2] <= n:
        assert len(formed) == r * (r - 1) // 2
    else:
        assert len(formed) < r * (r - 1) // 2


def test_one_pass_poisson_needs_a_lagrangian_ell_only_for_a_pair(
        sl3_min_zero, sl3_hb_zero):
    """As the per-pair route, which raises at its first pair: no pair, no
    error; a pair on a non-Lagrangian ell raises the same error."""
    assert list(W.gr_commutators_vs_poisson(sl3_hb_zero, [])) == []
    pair = poisson_pairs(sl3_hb_zero)[:1]
    assert pair
    assert run_route(one_pass(sl3_hb_zero, pair)) == \
        run_route(per_pair(sl3_hb_zero, pair)) == \
        ([], ("WalgError", "the reduced bracket needs a Lagrangian ell", None))
