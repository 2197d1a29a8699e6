"""Enveloping algebra: straightening, filtration, symbols, Casimir."""

import random
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walg import backend, poisson
from walg.pbw import PBWBasis, UEAElement, casimir, commutator

from reference import convert_element, pbw_multiply_rl


@pytest.fixture(scope="module")
def B2(sl2_ctx):
    return sl2_ctx.basis


@pytest.fixture(scope="module")
def B3(sl3_min_lag):
    return sl3_min_lag.basis


def gens(B):
    return [B.generator(k) for k in range(B.lie.dim)]


def symbol(u, n, chart):
    """The image of u in gr_n Ug, its terms of Kazhdan degree n, as a
    polynomial on the full chart; u must lie in F_n Ug."""
    deg = u.kazhdan_degree()
    assert deg is None or deg <= n, (deg, n)
    return poisson.KazhdanPolynomial(chart, u.homogeneous_terms(n))


def random_element(B, rng, max_len=3, n_terms=2):
    out = B.zero()
    for _ in range(n_terms):
        word = B.one() * F(rng.randint(-3, 3), rng.randint(1, 2))
        for _ in range(rng.randint(0, max_len)):
            word = word * B.generator(rng.randrange(B.lie.dim))
        out = out + word
    return out


def test_unit(B2):
    e = B2.generator(0)
    assert B2.one() * e == e and e * B2.one() == e


def test_fe_straightens(B2):
    e, h, f = gens(B2)
    assert f * e == e * f - h


def test_fef_confluence(B2):
    e, h, f = gens(B2)
    lr = (f * e) * f
    rl = pbw_multiply_rl(pbw_multiply_rl(f, e), f)
    assert lr == rl
    assert lr == e * f * f - h * f


def test_kazhdan_degrees(B2):
    e, h, f = gens(B2)
    assert B2.one().kazhdan_degree() == 0
    assert e.kazhdan_degree() == 4
    assert h.kazhdan_degree() == 2
    assert f.kazhdan_degree() == 0
    assert B2.zero().kazhdan_degree() is None


def test_commutator_examples(B2):
    e, h, f = gens(B2)
    u = e * f + h
    assert commutator(u, u).is_zero()
    assert commutator(e, f) == h
    assert commutator(e, f).kazhdan_degree() <= 4 + 0 - 2


def test_casimir_sl2_value(B2):
    e, h, f = gens(B2)
    om = casimir(B2)
    assert om == F(1, 2) * (e * f) - F(1, 4) * h + F(1, 8) * (h * h)
    assert om.kazhdan_degree() == 4
    for x in gens(B2):
        assert commutator(om, x).is_zero()


def test_casimir_sl3_central_degree_four(B3):
    om = casimir(B3)
    assert om.kazhdan_degree() == 4
    i12 = B3.labels.index("E12")
    assert commutator(om, B3.generator(i12)).is_zero()


def test_symbol_examples(sl2_ctx):
    B = sl2_ctx.basis
    chart = poisson.full_chart(B)
    e, h, f = gens(B)
    one = B.one()
    assert symbol(one, 0, chart) == poisson.KazhdanPolynomial.constant(chart, 1)
    u = 2 * (e * f) - h + F(1, 2) * (h * h)
    sym = symbol(u, 4, chart)
    ec = poisson.KazhdanPolynomial.variable(chart, 0)
    hc = poisson.KazhdanPolynomial.variable(chart, 1)
    fc = poisson.KazhdanPolynomial.variable(chart, 2)
    assert sym == 2 * ec * fc + F(1, 2) * hc * hc


def test_associativity_random(B2, B3):
    rng = random.Random(3)
    for B in (B2, B3):
        for _ in range(30):
            u, v, w = (random_element(B, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)


def test_confluence_random(B2, B3):
    rng = random.Random(4)
    for B in (B2, B3):
        for _ in range(30):
            u, v = random_element(B, rng), random_element(B, rng)
            assert u * v == pbw_multiply_rl(u, v)


def test_filtration_laws_random(B3):
    rng = random.Random(5)
    for _ in range(30):
        u, v = random_element(B3, rng), random_element(B3, rng)
        if u.is_zero() or v.is_zero():
            continue
        du, dv = u.kazhdan_degree(), v.kazhdan_degree()
        prod = u * v
        if not prod.is_zero():
            assert prod.kazhdan_degree() <= du + dv
        comm = commutator(u, v)
        if not comm.is_zero():
            assert comm.kazhdan_degree() <= du + dv - 2


def test_symbol_multiplicative(B3, sl3_min_lag):
    """gr is an algebra map when degrees are exact."""
    chart = poisson.full_chart(B3)
    rng = random.Random(6)
    for _ in range(20):
        u, v = random_element(B3, rng), random_element(B3, rng)
        if u.is_zero() or v.is_zero():
            continue
        du, dv = u.kazhdan_degree(), v.kazhdan_degree()
        su = symbol(u, du, chart)
        sv = symbol(v, dv, chart)
        sprod = symbol(u * v, du + dv, chart)
        assert sprod == su * sv


def test_symbol_of_commutator_is_poisson(B3, sl3_min_lag):
    """gr[u,v] at degree m+n-2 equals the Lie-Poisson bracket of symbols."""
    chart = poisson.full_chart(B3)
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        u, v = random_element(B3, rng, max_len=2), random_element(B3, rng, max_len=2)
        if u.is_zero() or v.is_zero():
            continue
        du, dv = u.kazhdan_degree(), v.kazhdan_degree()
        su = symbol(u, du, chart)
        sv = symbol(v, dv, chart)
        lhs = symbol(commutator(u, v), du + dv - 2, chart)
        rhs = poisson.lie_poisson_bracket(su, sv, B3)
        assert lhs == rhs
        checked += 1
    assert checked >= 20


def test_cold_cache_matches_warm(sl3_min_lag):
    """Products over a fresh basis, whose straightening cache starts empty,
    equal the same products over the fixture's basis, whose cache is warm."""
    sctx = sl3_min_lag
    fresh = PBWBasis.adapted(sctx.lie, sctx.grading, sctx.pair, sctx.chi)
    assert not fresh._cache_left
    rng = random.Random(8)
    for _ in range(10):
        u1 = random_element(sctx.basis, rng)
        u2 = random_element(sctx.basis, rng)
        prod = u1 * u2
        assert sctx.basis._cache_left
        v1 = UEAElement(fresh, dict(u1.terms))
        v2 = UEAElement(fresh, dict(u2.terms))
        assert (v1 * v2).terms == prod.terms


def test_convert_roundtrip(sl3_min_zero, sl3_min_lag):
    rng = random.Random(9)
    for _ in range(10):
        u = random_element(sl3_min_zero.basis, rng)
        v = convert_element(u, sl3_min_lag.basis)
        back = convert_element(v, sl3_min_zero.basis)
        assert back == u


words = st.lists(st.integers(0, 2), min_size=0, max_size=4)
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def element_of(B, word, c):
    out = B.one() * c
    for g in word:
        out = out * B.generator(g)
    return out


@settings(max_examples=80, deadline=None)
@given(words, words, words, coeffs, coeffs)
def test_associativity_property(sl2_ctx, w1, w2, w3, c1, c2):
    B = sl2_ctx.basis
    u, v, w = element_of(B, w1, c1), element_of(B, w2, c2), element_of(B, w3, F(1))
    assert (u * v) * w == u * (v * w)


@settings(max_examples=80, deadline=None)
@given(words, words, coeffs)
def test_confluence_property(sl2_ctx, w1, w2, c):
    B = sl2_ctx.basis
    u, v = element_of(B, w1, c), element_of(B, w2, F(1))
    assert u * v == pbw_multiply_rl(u, v)
    if not (u.is_zero() or v.is_zero()):
        prod = u * v
        if not prod.is_zero():
            assert prod.kazhdan_degree() <= u.kazhdan_degree() + v.kazhdan_degree()


# ---------------------------------------------------------------------------
# integer straightening against a Fraction reference
# ---------------------------------------------------------------------------

def mul_terms_reference(t1, t2, bracket):
    """PBW product of term dicts, straightened left to right in Fraction
    arithmetic throughout: the oracle for `backend.mul_terms`, which
    straightens integer numerators and rescales once."""
    bracket = {key: tuple((k, F(c)) for k, c in entry)
               for key, entry in bracket.items()}
    memo = {}

    def acc(out, mono, c):
        s = out.get(mono, F(0)) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)

    def gen_times_mono(g, mono):
        if not mono:
            return {((g, 1),): F(1)}
        if (g, mono) in memo:
            return memo[(g, mono)]
        i, e = mono[0]
        if g < i:
            out = {((g, 1),) + mono: F(1)}
        elif g == i:
            out = {((g, e + 1),) + mono[1:]: F(1)}
        else:
            rest = ((i, e - 1),) + mono[1:] if e > 1 else mono[1:]
            out = {}
            for n1, c1 in gen_times_mono(g, rest).items():
                for n2, c2 in gen_times_mono(i, n1).items():
                    acc(out, n2, c1 * c2)
            for k, c in bracket.get((i, g), ()):
                for n1, c1 in gen_times_mono(k, rest).items():
                    acc(out, n1, -c * c1)
        memo[(g, mono)] = out
        return out

    out = {}
    for mono, c in t1.items():
        cur = {m: F(v) for m, v in t2.items()}
        for idx, exp in reversed(mono):
            for _ in range(exp):
                nxt = {}
                for m, v in cur.items():
                    for n, c1 in gen_times_mono(idx, m).items():
                        acc(nxt, n, v * c1)
                cur = nxt
        for n, v in cur.items():
            acc(out, n, F(c) * v)
    return out


def pbw_terms(dim):
    """Term dicts over `dim` generators with rational coefficients of
    denominator at most 6: the zero element, unit multiples and sums of up
    to three ordered monomials of length at most four."""
    factor = st.tuples(st.integers(0, dim - 1), st.integers(1, 2))
    mono = st.lists(factor, max_size=3, unique_by=lambda f: f[0]).map(
        lambda fs: tuple(sorted(fs))).filter(
        lambda m: sum(e for _, e in m) <= 4)
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=6).filter(bool)
    return st.one_of(st.just({}), st.just({(): F(1)}),
                     coeff.map(lambda c: {(): c}),
                     st.dictionaries(mono, coeff, max_size=3))


@pytest.mark.parametrize("ctx_name", ["sl3_min_lag", "sl4_22_conj"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mul_terms_matches_fraction_reference(request, ctx_name, data):
    B = request.getfixturevalue(ctx_name).basis
    t1 = data.draw(pbw_terms(B.lie.dim))
    t2 = data.draw(pbw_terms(B.lie.dim))
    cache = {}
    out = backend.mul_terms(t1, t2, B.bracket, cache)
    assert out == mul_terms_reference(t1, t2, B.bracket)
    assert backend.mul_terms(t1, t2, B.bracket, cache) == out
    assert all(c for c in out.values())
    if ctx_name == "sl3_min_lag":
        # an integral basis: every whole coefficient comes back as an int
        assert all(type(c) is int for c in out.values() if c.denominator == 1)


CONTEXTS = ["sl2_ctx", "sl3_min_zero", "sl3_min_lag", "sl3_min_lag2",
            "sl3_min_conj", "sl3_principal", "sl4_22_conj", "sl4_211",
            "sl4_regular"]


@pytest.mark.parametrize("ctx_name", CONTEXTS)
def test_structure_constants_match_dense_reference(request, ctx_name):
    """The sparse constants equal the dense route, `lie.bracket` of the
    adapted vectors read off by `coords`, with whole constants as ints."""
    B = request.getfixturevalue(ctx_name).basis
    d = B.lie.dim
    ref = {}
    for i in range(d):
        for j in range(i + 1, d):
            c = B.coords(B.lie.bracket(B.vectors[i], B.vectors[j]))
            entry = tuple((k, c[k]) for k in range(d) if c[k])
            if entry:
                ref[(i, j)] = entry
    consts = B._structure_constants()
    assert consts == ref and B.bracket == ref
    assert all(type(c) is int for entry in consts.values() for _, c in entry
               if F(c).denominator == 1)


def adapted_reference(sctx):
    """(graded vectors, complement size) of `PBWBasis.adapted`, chosen on an
    echelon of `Fraction` rows with a unit pivot at each row's first
    column."""
    echelon = []

    def extend(v):
        w = {j: F(c) for j, c in enumerate(v) if c}
        for p, row in echelon:
            c = w.get(p)
            if c:
                for j, a in row.items():
                    s = w.get(j, 0) - c * a
                    if s:
                        w[j] = s
                    else:
                        del w[j]
        if w:
            p = min(w)
            echelon.append((p, {j: c / w[p] for j, c in w.items()}))
        return bool(w)

    for v, _ in sctx.pair.a_graded:
        extend(v)
    complement = [(v, i) for i in sorted(sctx.grading.weights(), reverse=True)
                  for v in sctx.grading.piece(i).basis if extend(v)]
    a_part = sorted(sctx.pair.a_graded, key=lambda vw: -vw[1])
    return complement + a_part, len(complement)


@pytest.mark.parametrize("ctx_name", [
    "sl2_ctx", "sl3_min_zero", "sl3_min_lag", "sl3_min_lag2", "sl3_min_conj",
    "sl3_principal", "sl4_22_conj", "sl4_211", "sl4_regular"])
def test_adapted_order_matches_fraction_echelon(request, ctx_name):
    sctx = request.getfixturevalue(ctx_name)
    basis = PBWBasis.adapted(sctx.lie, sctx.grading, sctx.pair, sctx.chi)
    graded, n_complement = adapted_reference(sctx)
    assert list(zip(basis.vectors, basis.weights)) == graded
    assert basis.n_complement == n_complement


def test_half_integer_basis_is_not_integral(sl4_22_conj):
    consts = [c for entry in sl4_22_conj.basis.bracket.values()
              for _, c in entry]
    assert any(F(c).denominator == 2 for c in consts)


def test_integral_basis_caches_ints(sl3_min_lag):
    sctx = sl3_min_lag
    fresh = PBWBasis.adapted(sctx.lie, sctx.grading, sctx.pair, sctx.chi)
    g = fresh.generator
    u = F(1, 2) * g(7) * g(5) + F(-2, 3) * g(6)
    v = F(3, 4) * g(0) * g(1) + F(5) * g(2) * g(3) + F(1, 6) * fresh.one()
    prod = u * v
    assert fresh._cache_left
    assert all(type(c) is int for out in fresh._cache_left.values()
               for c in out.values())
    assert prod.terms == mul_terms_reference(u.terms, v.terms, fresh.bracket)


def test_monomial_map_builds_each_image_once():
    """Each monomial's image is built once, from its suffix: on monomials
    sharing suffixes the steps taken equal the images kept (5, where
    expanding each monomial alone would take 9), and a second call takes
    none."""
    steps = []

    def step(g, img):
        steps.append(g)
        den, ints = img
        return 2 * den, {m: (g + 3) * c for m, c in ints.items()}

    f = backend.MonomialMap(step, {(): F(1, 3)})
    terms = {((0, 2), (1, 1), (2, 1)): 1, ((1, 1), (2, 1)): F(1, 2),
             ((0, 1), (2, 1)): -1, ((2, 1),): 3}
    expected = sum(c * F(1, 3) * F(1, 2 ** sum(e for _, e in m))
                   * prod((g + 3) ** e for g, e in m)
                   for m, c in terms.items())
    assert f(terms) == {(): expected}
    assert len(steps) == len(f.memo) - 1 == 5
    assert f(terms) == {(): expected}
    assert len(steps) == 5


@pytest.mark.parametrize("ctx_name", CONTEXTS)
def test_ad_coords_match_dense_reference(request, ctx_name):
    """[x, v_p] read off the structure constants equals `lie.bracket` of x
    and v_p read off by `coords`, for basis vectors and a dense x."""
    sctx = request.getfixturevalue(ctx_name)
    B = sctx.basis
    d = B.lie.dim
    rng = random.Random(29)
    dense = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
    for x in list(B.vectors[-2:]) + [dense] + [v for v, _ in sctx.pair.n_graded]:
        ref = [B.coords(B.lie.bracket(x, v)) for v in B.vectors]
        got = B.ad_coords(x)
        assert got == [{k: c for k, c in enumerate(col) if c} for col in ref]
        assert all(list(col) == sorted(col) for col in got)
