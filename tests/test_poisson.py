"""Poisson layer: brackets, restriction, series, flows, lifts, reduction."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walg import backend, cli
from walg import poisson as P
from walg import whittaker as W
from walg.context import build_context
from walg.errors import ChartMismatch, LiftFailure, WalgError
from walg.liealg import make_sln, partition_triple
from walg.linalg import SparseMatrix, Subspace, _equals, rank_of_rows, solve

from conftest import add_one_unit, pullback_at
from reference import derivation


def var(chart, i, c=1):
    return P.KazhdanPolynomial.variable(chart, i, c)


def degrees_of(F):
    """The Kazhdan degrees of the terms of F."""
    return {sum(e * F.chart.degrees[i] for i, e in m) for m in F.terms}


def brute_count_monomials(degrees, n):
    """Independent oracle: count exponent tuples with sum e_i d_i = n."""
    count = 0
    ranges = [range(0, n // d + 1) for d in degrees]
    for exps in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exps, degrees)) == n:
            count += 1
    return count


def test_bracket_antisymmetry_and_linear_case(sl2_ctx):
    chart = P.full_chart(sl2_ctx.basis)
    B = sl2_ctx.basis
    e, h, f = (var(chart, i) for i in range(3))
    assert P.lie_poisson_bracket(e, e, B).is_zero()
    assert P.lie_poisson_bracket(e, f, B) == h
    assert P.lie_poisson_bracket(f, e, B) == -1 * h


def test_bracket_leibniz_example(sl2_ctx):
    chart = P.full_chart(sl2_ctx.basis)
    B = sl2_ctx.basis
    e, h, f = (var(chart, i) for i in range(3))
    assert P.lie_poisson_bracket(e * f, h, B).is_zero()


def test_bracket_jacobi_on_linear(sl3_min_lag):
    chart = P.full_chart(sl3_min_lag.basis)
    B = sl3_min_lag.basis
    d = B.lie.dim
    for i, j, k in itertools.combinations(range(d), 3):
        a, b, c = var(chart, i), var(chart, j), var(chart, k)
        s = (P.lie_poisson_bracket(a, P.lie_poisson_bracket(b, c, B), B)
             + P.lie_poisson_bracket(b, P.lie_poisson_bracket(c, a, B), B)
             + P.lie_poisson_bracket(c, P.lie_poisson_bracket(a, b, B), B))
        assert s.is_zero(), (i, j, k)


def test_bracket_leibniz_random(sl3_min_lag):
    chart = P.full_chart(sl3_min_lag.basis)
    B = sl3_min_lag.basis
    rng = random.Random(12)

    def rand_poly():
        out = P.KazhdanPolynomial.zero(chart)
        for _ in range(2):
            m = var(chart, rng.randrange(8), F(rng.randint(-3, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 2)):
                m = m * var(chart, rng.randrange(8))
            out = out + m
        return out

    for _ in range(15):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        lhs = P.lie_poisson_bracket(a, b * c, B)
        rhs = P.lie_poisson_bracket(a, b, B) * c + b * P.lie_poisson_bracket(a, c, B)
        assert lhs == rhs


def test_bracket_homogeneity(sl3_min_lag):
    chart = P.full_chart(sl3_min_lag.basis)
    B = sl3_min_lag.basis
    rng = random.Random(13)
    for _ in range(20):
        i, j = rng.randrange(8), rng.randrange(8)
        a = var(chart, i) * var(chart, j)
        k = rng.randrange(8)
        b = var(chart, k)
        br = P.lie_poisson_bracket(a, b, B)
        if br.is_zero():
            continue
        assert len(degrees_of(br)) == 1
        assert br.kazhdan_degree() == a.kazhdan_degree() + b.kazhdan_degree() - 2


def test_chart_mismatch_raises(sl2_ctx, sl3_min_lag):
    with pytest.raises(ChartMismatch):
        P.lie_poisson_bracket(var(P.full_chart(sl2_ctx.basis), 0),
                              var(P.full_chart(sl3_min_lag.basis), 0),
                              sl2_ctx.basis)


def test_mixed_element_and_polynomial_arithmetic_raises(sl2_ctx):
    """A PBW element and a polynomial share monomials but not a space:
    mixing them is a WalgError, not a TypeError (exit 3)."""
    u = sl2_ctx.basis.generator(0)
    p = var(P.full_chart(sl2_ctx.basis), 0)
    for op in (lambda: u + p, lambda: p + u, lambda: p * u, lambda: u * p,
               lambda: u - p, lambda: p - u):
        with pytest.raises(WalgError):
            op()


def test_restriction_examples(sl2_ctx):
    chart = P.full_chart(sl2_ctx.basis)
    B = sl2_ctx.basis
    e, h, f = (var(chart, i) for i in range(3))
    one = P.KazhdanPolynomial.constant(chart, 1)
    comp = sl2_ctx.comp_chart
    assert P.restrict_to_chi_plus_a_perp(f, B) == P.KazhdanPolynomial.constant(comp, 1)
    got = P.restrict_to_chi_plus_a_perp(e * f - h, B)
    assert got == var(comp, 0) - var(comp, 1)
    assert P.restrict_to_chi_plus_a_perp(one, B) == P.KazhdanPolynomial.constant(comp, 1)


def test_hilbert_series_sl2(sl2_ctx):
    assert sl2_ctx.hilbert_slice(8) == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_hilbert_series_sl3_minimal(sl3_min_lag):
    assert tuple(sorted(sl3_min_lag.slice_data.degrees)) == (2, 3, 3, 4)
    assert sl3_min_lag.hilbert_slice(6) == [1, 0, 1, 2, 2, 2, 5]


def test_hilbert_series_empty_chart():
    assert P.series_expand([], 4) == [1, 0, 0, 0, 0]


def test_series_against_brute_force():
    degrees = [1, 2, 3, 4]
    series = P.series_expand(degrees, 7)
    for n in range(8):
        assert series[n] == brute_count_monomials(degrees, n)


def test_enumeration_against_brute_force():
    degrees = [1, 2, 3]
    monos = P.enumerate_monomials(degrees, 6)
    assert len(monos) == len(set(monos))
    for n in range(7):
        got = [m for m in monos
               if sum(e * degrees[i] for i, e in m) == n]
        assert len(got) == brute_count_monomials(degrees, n)
    degs = [sum(e * degrees[i] for i, e in m) for m in monos]
    assert degs == sorted(degs)


def test_flow_identity_and_inverse(sl3_min_lag):
    """The pullbacks form a one-parameter group: pulling back by s, then by
    t, is pulling back by t + s, and t = 1 then t = -1 is the identity."""
    B = sl3_min_lag.basis
    comp = P.complement_chart(B)
    polys = [var(comp, p) for p in range(B.n_complement)]
    polys.append(var(comp, 0) * var(comp, 2) + var(comp, 1, F(1, 2)))
    rng = random.Random(14)
    for x, _ in sl3_min_lag.pair.n_graded:
        fl = P.CoadjointFlow(B, x)
        for G in polys:
            for _ in range(4):
                t = F(rng.randint(-6, 6), rng.randint(1, 5))
                s = F(rng.randint(-6, 6), rng.randint(1, 5))
                assert pullback_at(fl, pullback_at(fl, G, s), t) == \
                    pullback_at(fl, G, t + s)
            assert pullback_at(fl, pullback_at(fl, G, F(1)), F(-1)) == G


def _mat_mul(A, B, dim):
    """Dense matrix product, the loop the flow's layers were built with."""
    return tuple(tuple(sum((A[r][k] * B[k][c] for k in range(dim) if A[r][k]), F(0))
                       for c in range(dim)) for r in range(dim))


def dense_flow_layers(basis, x):
    """(ad x)^k / k! on the adapted basis, as dense matrices, up to the last
    nonzero power; coordinates are solved for, not read off an inverse."""
    L = basis.lie
    d = L.dim
    P = SparseMatrix.from_columns(basis.vectors)
    cols = [solve(P, L.bracket(x, v)) for v in basis.vectors]
    A = tuple(tuple(cols[q][r] for q in range(d)) for r in range(d))
    layers = [tuple(tuple(F(int(r == c)) for c in range(d)) for r in range(d))]
    cur, k, fact = A, 1, 1
    while any(any(row) for row in cur):
        assert k <= d
        layers.append(tuple(tuple(v / fact for v in row) for row in cur))
        cur = _mat_mul(cur, A, d)
        k += 1
        fact *= k
    return tuple(layers)


def flow_point(layers, row, t):
    """Image of a covector (coordinate row <xi, v_q>) under exp(t ad* x),
    for the dense layers of x: the row times
    exp(-t ad x) = sum_k (-t)^k layers[k]."""
    d = len(row)
    M = [[sum(((-t) ** k * L[p][q] for k, L in enumerate(layers)), F(0))
          for q in range(d)] for p in range(d)]
    return tuple(sum((row[p] * M[p][q] for p in range(d) if row[p]), F(0))
                 for q in range(d))


def dense_pullback(layers, basis, p):
    """The pullback of the complement coordinate y_p by the flow of the
    dense layers, by powers of t: sum_q (-1)^k layers[k][q][p] y_q, each
    a-coordinate y_q replaced by its chi-value; zero powers left out."""
    nc = basis.n_complement
    comp = P.complement_chart(basis)
    out = {}
    for k, L in enumerate(layers):
        terms = {}
        for q, row in enumerate(L):
            v = (-1) ** k * row[p]
            m, v = (((q, 1),), v) if q < nc else ((), v * basis.chi_vals[q])
            terms[m] = terms.get(m, F(0)) + v
        G = P.KazhdanPolynomial(comp, terms)
        if not G.is_zero():
            out[k] = G
    return out


@pytest.mark.parametrize("ctx_name", ["sl3_min_lag", "sl4_22_conj"])
def test_flow_layers_match_dense_reference(request, ctx_name):
    """The flow's pullback of every complement coordinate is the one its
    dense layers give, and some coordinate moves."""
    sctx = request.getfixturevalue(ctx_name)
    B = sctx.basis
    comp = P.complement_chart(B)
    for x, _ in sctx.pair.n_graded:
        fl = P.CoadjointFlow(B, x)
        layers = dense_flow_layers(B, x)
        pulled = [fl.pullback_formal(var(comp, p)) for p in range(B.n_complement)]
        assert pulled == [dense_pullback(layers, B, p)
                          for p in range(B.n_complement)]
        assert any(k > 0 for pb in pulled for k in pb)


def _evaluate(poly, point):
    """The value of a polynomial at a point, given by its coordinates."""
    total = F(0)
    for m, c in poly.terms.items():
        for i, e in m:
            c *= point[i] ** e
        total += c
    return total


@pytest.mark.parametrize("ctx_name", ["sl3_min_lag", "sl4_22_conj"])
def test_pullback_formal_matches_point_flow(request, ctx_name):
    """sum_k t^k (pullback of F)_k at a point of chi + a^perp is F at the
    point moved by the time-t flow; the flow's images are reused by every
    call."""
    sctx = request.getfixturevalue(ctx_name)
    B = sctx.basis
    nc = B.n_complement
    chart = P.complement_chart(B)
    rng = random.Random(11)
    polys = [P.KazhdanPolynomial.constant(chart, F(1))]
    for _ in range(3):
        terms = {}
        for _ in range(3):
            mono = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(nc)
                mono[i] = mono.get(i, 0) + 1
            terms[tuple(sorted(mono.items()))] = F(rng.randint(-3, 3) or 1,
                                                   rng.randint(1, 3))
        polys.append(P.KazhdanPolynomial(chart, terms))
    for x, _ in sctx.pair.a_graded:
        fl = P.CoadjointFlow(B, x)
        layers = dense_flow_layers(B, x)
        for poly in polys:
            pulled = fl.pullback_formal(poly)
            assert fl.pullback_formal(poly) == pulled
            for t in (F(1), F(-2, 3)):
                row = list(B.chi_vals)
                for q in range(nc):
                    row[q] = F(rng.randint(-4, 4), rng.randint(1, 3))
                lhs = sum((t ** k * _evaluate(p, row) for k, p in pulled.items()),
                          F(0))
                assert lhs == _evaluate(poly, flow_point(layers, row, t))


def test_zero_flow_is_identity(sl3_min_lag):
    B = sl3_min_lag.basis
    comp = P.complement_chart(B)
    fl = P.CoadjointFlow(B, (0,) * 8)
    for p in range(B.n_complement):
        assert fl.pullback_formal(var(comp, p)) == {0: var(comp, p)}


def test_sl2_f_flow(sl2_ctx):
    """exp(t ad* f) moves slice points polynomially; exp(1) exp(-1) = id."""
    B = sl2_ctx.basis
    f = sl2_ctx.triple.f
    fl = P.CoadjointFlow(B, f)
    comp = P.complement_chart(B)
    coords = [var(comp, p) for p in range(B.n_complement)]
    # ad f is nilpotent of index 3 on sl2
    assert max(k for y in coords for k in fl.pullback_formal(y)) == 2
    row = tuple(B.chi_vals)
    moved = flow_point(dense_flow_layers(B, f), row, F(1))
    assert moved != row
    for p, y in enumerate(coords):
        assert _evaluate(pullback_at(fl, y, F(1)), row) == moved[p]
        assert pullback_at(fl, pullback_at(fl, y, F(1)), F(-1)) == y


def test_flow_preserves_chi_plus_a_perp(sl3_min_lag):
    """Points of chi + m^perp stay inside, and the a-coordinates stay at
    chi, under the dense flow: the condition on which `pullback_formal`
    replaces the a-coordinates by their chi-values."""
    sctx = sl3_min_lag
    B = sctx.basis
    nc = B.n_complement
    d = B.lie.dim
    chi_row = tuple(B.chi_vals)
    for x, _ in sctx.pair.n_graded:
        layers = dense_flow_layers(B, x)
        for t in (F(1), F(-2), F(3, 7)):
            for k in range(nc + 1):
                row = list(chi_row)
                if k < nc:
                    row[k] += 1
                moved = flow_point(layers, row, t)
                for q in range(nc, d):
                    assert moved[q] == B.chi_vals[q], (x, t, q)


def test_invariant_lift_constant(sl3_min_lag):
    red = sl3_min_lag.reduction
    one = P.KazhdanPolynomial.constant(sl3_min_lag.slice_data.chart, 1)
    assert P.invariant_lift(one, red) == \
        P.KazhdanPolynomial.constant(sl3_min_lag.comp_chart, 1)


def test_invariant_lift_sl2(sl2_ctx):
    red = sl2_ctx.reduction
    t2 = var(sl2_ctx.slice_data.chart, 0, 2)
    comp = sl2_ctx.comp_chart
    lift = P.invariant_lift(t2, red)
    assert lift == 2 * var(comp, 0) + F(1, 2) * var(comp, 1) * var(comp, 1)


def test_invariant_lift_leading_term(sl3_min_lag):
    """Minimal-degree slice coordinates lift with their nu-preimage leading."""
    sctx = sl3_min_lag
    red = sctx.reduction
    t1 = var(sctx.slice_data.chart, 0)
    lift = P.invariant_lift(t1, red)
    assert sctx.slice_data.restrict(lift) == t1
    for x, _ in sctx.pair.a_graded:
        assert derivation(red, x, lift).is_zero()


def test_invariant_lift_needs_lagrangian(sl3_min_zero):
    with pytest.raises(LiftFailure):
        P.invariant_lift(
            P.KazhdanPolynomial.constant(sl3_min_zero.slice_data.chart, 1),
            sl3_min_zero.reduction)


def test_slice_bracket_antisymmetry_sl2(sl2_ctx):
    red = sl2_ctx.reduction
    t = var(sl2_ctx.slice_data.chart, 0)
    assert P.slice_poisson_bracket(t, t, red).is_zero()
    assert P.slice_poisson_bracket(t, t * t, red).is_zero()


def test_slice_bracket_degree3_pair(sl3_min_lag):
    """Brackets of the degree-3 coordinates close with degree 4."""
    sctx = sl3_min_lag
    chart = sctx.slice_data.chart
    deg3 = [i for i, d in enumerate(chart.degrees) if d == 3]
    assert len(deg3) == 2
    a, b = var(chart, deg3[0]), var(chart, deg3[1])
    br = P.slice_poisson_bracket(a, b, sctx.reduction)
    assert not br.is_zero()
    assert degrees_of(br) == {4}


def test_slice_bracket_extension_independent(sl3_min_lag):
    sctx = sl3_min_lag
    chart = sctx.slice_data.chart
    rng = random.Random(15)
    twist = var(sctx.comp_chart, 0) + P.KazhdanPolynomial.constant(sctx.comp_chart, 2)
    for _ in range(4):
        i, j = rng.randrange(len(chart)), rng.randrange(len(chart))
        a, b = var(chart, i), var(chart, j)
        if a.kazhdan_degree() + b.kazhdan_degree() > 7:
            continue
        plain = P.slice_poisson_bracket(a, b, sctx.reduction)
        twisted = P.slice_poisson_bracket(a, b, sctx.reduction, twist=twist)
        assert plain == twisted


def test_slice_bracket_jacobi_small(sl3_min_lag):
    sctx = sl3_min_lag
    chart = sctx.slice_data.chart
    t1 = var(chart, 0)       # degree 2
    deg3 = [i for i, d in enumerate(chart.degrees) if d == 3]
    a, b = var(chart, deg3[0]), var(chart, deg3[1])

    def br(x, y):
        return P.slice_poisson_bracket(x, y, sctx.reduction)

    s = br(t1, br(a, b)) + br(a, br(b, t1)) + br(b, br(t1, a))
    assert s.is_zero()


def test_transversality_at_random_slice_points(sl2_ctx, sl3_min_lag):
    """[Phi^{-1}(xi), [f, g]] meets Ker ad f trivially at random xi in S:
    by the modular law, the rank of the sum is the sum of the dimensions."""
    rng = random.Random(16)
    for sctx in (sl2_ctx, sl3_min_lag):
        L = sctx.lie
        adf = L.ad_sparse(sctx.triple.f)
        image_f = Subspace(L.dim, [adf.apply([1 if i == j else 0
                                              for i in range(L.dim)])
                                   for j in range(L.dim)])
        for _ in range(3):
            point = list(sctx.triple.e)
            for z, _w in sctx.kerf_graded:
                c = F(rng.randint(-3, 3), rng.randint(1, 4))
                point = [p + c * zi for p, zi in zip(point, z)]
            moved = Subspace(L.dim, [L.bracket(point, u) for u in image_f.basis])
            assert rank_of_rows(moved.rows + sctx.kerf.rows, L.dim) == \
                moved.dim + sctx.kerf.dim


def per_degree_lift(F, red):
    """Reference lift, independent of the coordinate lifts: for each Kazhdan
    degree n of F, one solve for the combination of complement monomials of
    degree n that every m-generator derivation kills and that restricts to
    the degree-n part of F."""
    comp = red.comp_chart
    comp_degs = comp.degrees
    slice_degs = red.slice_data.degrees
    by_degree = {}
    for m, c in F.terms.items():
        by_degree.setdefault(sum(e * F.chart.degrees[i] for i, e in m),
                            {})[m] = c
    total = P.KazhdanPolynomial.zero(comp)
    for n, Fn in sorted(by_degree.items()):
        monos = P.monomials_of_degree(comp_degs, n)
        rows, rhs = [], []
        for x, w in red.m_graded:
            target = P.monomials_of_degree(comp_degs, n + w)
            index = {m: i for i, m in enumerate(target)}
            block = [dict() for _ in target]
            for j, mono in enumerate(monos):
                image = derivation(red, x, P.KazhdanPolynomial(comp, {mono: 1}))
                for m2, c2 in image.terms.items():
                    block[index[m2]][j] = c2
            rows.extend(block)
            rhs.extend([0] * len(target))
        target = P.monomials_of_degree(slice_degs, n)
        index = {m: i for i, m in enumerate(target)}
        block = [dict() for _ in target]
        for j, mono in enumerate(monos):
            image = red.slice_data.restrict(P.KazhdanPolynomial(comp, {mono: 1}))
            for m2, c2 in image.terms.items():
                block[index[m2]][j] = c2
        rows.extend(block)
        rhs.extend(Fn.get(m, 0) for m in target)
        M = SparseMatrix(len(rows), len(monos),
                         {(r, j): v for r, row in enumerate(rows)
                          for j, v in row.items()})
        sol = solve(M, rhs)
        assert sol is not None, n
        total = total + P.KazhdanPolynomial(comp, dict(zip(monos, sol)))
    return total


def random_slice_polynomial(chart, rng, max_degree):
    """A random combination of up to 4 monomials of degree <= max_degree,
    possibly with a constant term."""
    monos = P.enumerate_monomials(chart.degrees, max_degree)
    terms = {m: F(rng.randint(-5, 5), rng.randint(1, 3))
             for m in rng.sample(monos, min(4, len(monos)))}
    return P.KazhdanPolynomial(chart, terms)


@pytest.mark.parametrize("name, max_degree", [("sl2_ctx", 12),
                                              ("sl3_min_lag", 7)])
def test_invariant_lift_matches_per_degree_solve(request, name, max_degree):
    sctx = request.getfixturevalue(name)
    red = sctx.reduction
    chart = sctx.slice_data.chart
    rng = random.Random(17)
    cases = [P.KazhdanPolynomial.constant(chart, F(-3, 2)),
             P.KazhdanPolynomial.zero(chart)]
    cases += [random_slice_polynomial(chart, rng, max_degree) for _ in range(8)]
    assert any(() in G.terms and len(degrees_of(G)) > 1 for G in cases[2:])
    for G in cases:
        lift = P.invariant_lift(G, red)
        assert lift == per_degree_lift(G, red), str(G)
        assert sctx.slice_data.restrict(lift) == G


def test_coordinate_lifts_computed_once(sl3_min_lag):
    red = sl3_min_lag.reduction
    lifts = red.coordinate_lifts()
    assert red.coordinate_lifts() is lifts
    chart = sl3_min_lag.slice_data.chart
    assert [sl3_min_lag.slice_data.restrict(T) for T in lifts] == \
        [var(chart, k) for k in range(len(chart))]


def test_corrupted_coordinate_lift_raises(sl3_min_lag, monkeypatch):
    red = sl3_min_lag.reduction
    chart = sl3_min_lag.slice_data.chart
    doubled = [2 * T for T in red.coordinate_lifts()]
    monkeypatch.setattr(P.ReductionData, "coordinate_lifts",
                        lambda self: doubled)
    # the lift map is built once, so it is built again on the doubled lifts
    monkeypatch.setattr(red, "_lift_map", None)
    for k in range(len(chart)):
        with pytest.raises(LiftFailure):
            P.invariant_lift(var(chart, k), red)
    with pytest.raises(LiftFailure):
        P.invariant_lift(var(chart, 0) * var(chart, 1) + 1, red)


def test_coordinate_lifts_certified_by_flows(sl3_min_lag, monkeypatch):
    """With the invariance rows dropped (every image D_x(m) of an
    m-generator read as zero), the solve still restricts to t_k, but the
    flow pullback rejects the non-invariant solution."""
    red = sl3_min_lag.reduction
    fresh = P.ReductionData(red.basis, red.slice_data, red.m_graded,
                            red.is_lagrangian)
    monkeypatch.setattr(P.SymbolDerivation, "image",
                        lambda self, mono, memo: {})
    with pytest.raises(LiftFailure, match="not flow-invariant"):
        fresh.coordinate_lifts()


@pytest.mark.parametrize("n, partition", [(3, [2, 1]), (4, [2, 2]),
                                          (4, [2, 1, 1])])
def test_coordinate_lifts_fail_on_a_wrong_derivation(n, partition):
    """Negative control: one unit added to one coefficient of one image
    D_x(y_p) of an m-generator x, each in turn, makes `coordinate_lifts`
    raise: the system has no solution, or its solution is not invariant
    under the flows, which do not read D_x."""
    e, h, f = partition_triple(n, partition)
    red = build_context(make_sln(n), e, "lagrangian-auto", h=h, f=f).reduction
    assert red.is_lagrangian and red.m_graded
    for x, _ in red.m_graded:
        fresh = P.ReductionData(red.basis, red.slice_data, red.m_graded,
                                red.is_lagrangian)
        add_one_unit(fresh, x)
        with pytest.raises(LiftFailure,
                           match="not flow-invariant|no invariant lift"):
            fresh.coordinate_lifts()


def test_poisson_check_fails_on_a_wrong_field():
    """Negative control: one unit added to the first nonzero image
    D_{v_1}(y_p) of the complement generator v_1, which only the
    Hamiltonian field reads, fails the `poisson` check of sl3 minimal
    (Lagrangian, degree 6) at the pair (2, 3); the other side of each
    pair, nu of the commutator in H, does not read it."""
    case = cli.Case(cli.JobConfig("sl3", "minimal", "lagrangian-auto", 6,
                                  ["poisson"]))
    add_one_unit(case.sctx.reduction, case.sctx.basis.vectors[1])
    ok, details, witness = cli.check_poisson(case)
    assert not ok and witness == {"pair": [2, 3]}
    assert details == {"pairs_checked": 6}


def test_derivation_memoized_by_generator(sl3_min_lag):
    """One `SymbolDerivation` per object x: built once and kept for that
    object; an equal vector given as another object gets another
    derivation with equal images."""
    red = sl3_min_lag.reduction
    fresh = P.ReductionData(red.basis, red.slice_data, red.m_graded,
                            red.is_lagrangian)
    x = red.m_graded[0][0]
    d = fresh.derivation(x)
    assert isinstance(d, P.SymbolDerivation)
    assert fresh.derivation(x) is d
    twin = fresh.derivation(list(x))
    assert twin is not d
    assert (twin.den, twin.images) == (d.den, d.images)
    other = fresh.derivation(red.m_graded[1][0])
    assert (other.den, other.images) != (d.den, d.images)


def substitute_reference(G, images, target):
    """Reference composition: expand every monomial of G by repeated
    products of the images, with no memo."""
    out = P.KazhdanPolynomial.zero(target)
    for m, c in G.terms.items():
        acc = P.KazhdanPolynomial.constant(target, c)
        for i, e in m:
            for _ in range(e):
                acc = acc * images[i]
        out = out + acc
    return out


def polynomials(chart, max_degree):
    """Mixed-degree polynomials on `chart`, the zero polynomial and
    constants included."""
    monos = P.enumerate_monomials(chart.degrees, max_degree)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(st.sampled_from(monos), coeff, max_size=5).map(
        lambda terms: P.KazhdanPolynomial(chart, terms))


def test_conjugated_fixture_has_multi_term_nu_images(sl3_min_conj):
    assert max(len(img.terms) for img in sl3_min_conj.slice_data.nu_images) >= 2


@pytest.mark.parametrize("name", ["sl3_min_lag", "sl3_min_conj"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitutions_match_reference(request, name, data):
    sctx = request.getfixturevalue(name)
    sd, red = sctx.slice_data, sctx.reduction
    comp = sctx.comp_chart
    for G in (P.KazhdanPolynomial.zero(comp), P.KazhdanPolynomial.constant(comp, F(-7, 3)),
              data.draw(polynomials(comp, 6))):
        assert sd.restrict(G) == substitute_reference(G, sd.nu_images, sd.chart)
    lifts = red.coordinate_lifts()
    for G in (P.KazhdanPolynomial.zero(sd.chart), P.KazhdanPolynomial.constant(sd.chart, 2),
              data.draw(polynomials(sd.chart, 6))):
        assert red.lift_map()(G) == substitute_reference(G, lifts, comp)


def test_restrict_results_do_not_alias_the_memo(sl3_min_conj):
    sd = sl3_min_conj.slice_data
    comp = sl3_min_conj.comp_chart
    cases = [P.KazhdanPolynomial.constant(comp, 1), var(comp, 1),
             var(comp, 1) * var(comp, 2) * var(comp, 1)]
    for G in cases:
        expected = substitute_reference(G, sd.nu_images, sd.chart)
        got = sd.restrict(G)
        assert got == expected
        for m in list(got.terms):
            got.terms[m] = F(99)
        got.terms[((0, 7),)] = F(1)
        assert sd.restrict(G) == expected


def test_restrict_rejects_another_complement_chart(sl2_ctx, sl3_min_lag):
    y0 = var(sl2_ctx.comp_chart, 0)
    with pytest.raises(ChartMismatch):
        sl3_min_lag.slice_data.restrict(y0 * y0)


def test_substitution_checks_its_charts(sl2_ctx, sl3_min_lag):
    sd = sl3_min_lag.slice_data
    source = sl3_min_lag.comp_chart
    with pytest.raises(ChartMismatch):
        P.Substitution(source, sd.nu_images[:-1], sd.chart)
    foreign = [var(sl2_ctx.slice_data.chart, 0)] * len(source)
    with pytest.raises(ChartMismatch):
        P.Substitution(source, foreign, sd.chart)


def test_invariant_lift_matches_per_degree_solve_off_standard_coordinates(sl3_min_conj):
    red = sl3_min_conj.reduction
    chart = sl3_min_conj.slice_data.chart
    rng = random.Random(18)
    cases = [P.KazhdanPolynomial.constant(chart, F(5, 2))]
    cases += [random_slice_polynomial(chart, rng, 7) for _ in range(6)]
    for G in cases:
        assert P.invariant_lift(G, red) == per_degree_lift(G, red), str(G)


def test_verify_theorem_builds_each_monomial_image_once(sl3_min_lag, sl3_hb_lag,
                                                         monkeypatch):
    """A fresh nu builds each complement monomial's image at most once: at
    most one product per monomial of degree <= 6, none on a second run.
    Expanding every monomial on every call would take 390 products here."""
    sctx = sl3_min_lag
    fresh = P.SliceData(sctx.basis, sctx.kerf_graded, sctx.chi.kappa_ef)
    monkeypatch.setattr(sctx, "slice_data", fresh)
    W.verify_theorem(sl3_hb_lag)
    built = fresh.nu.products
    assert 0 < built <= len(P.enumerate_monomials(sctx.comp_chart.degrees, 6)) - 1
    W.verify_theorem(sl3_hb_lag)
    assert fresh.nu.products == built


def per_coordinate_lifts(red):
    """Reference: the lift of each slice coordinate t_k by its own solve,
    the system of its degree built again for every k."""
    comp = red.comp_chart
    slice_degs = red.slice_data.degrees
    lifts = []
    for k, n in enumerate(slice_degs):
        monos = P.monomials_of_degree(comp.degrees, n)
        blocks = [(P.monomials_of_degree(slice_degs, n),
                   lambda G: red.slice_data.restrict(G))]
        blocks += [(P.monomials_of_degree(comp.degrees, n + w),
                    lambda G, x=x: derivation(red, x, G)) for x, w in red.m_graded]
        entries, rhs, offset = {}, [], 0
        for target, image_of in blocks:
            index = {m: i for i, m in enumerate(target)}
            for j, mono in enumerate(monos):
                for m2, c2 in image_of(P.KazhdanPolynomial(comp, {mono: 1})).terms.items():
                    entries[(offset + index[m2], j)] = c2
            rhs += [int(not offset and m == ((k, 1),)) for m in target]
            offset += len(target)
        sol = solve(SparseMatrix(offset, len(monos), entries), rhs)
        assert sol is not None, k
        lifts.append(P.KazhdanPolynomial(comp, dict(zip(monos, sol))))
    return lifts


@pytest.mark.parametrize("name", ["sl2_ctx", "sl3_min_lag", "sl3_min_conj",
                                  "sl3_principal", "sl4_22_conj"])
def test_coordinate_lifts_match_per_coordinate_solves(request, name):
    """One system per slice degree, all the right-hand sides of a degree
    eliminated together, gives the lifts of one solve per coordinate; each
    m-generator has one `SymbolDerivation`, and one pass builds the image
    D_x(m) of each monomial once: every monomial of every slice degree,
    and the suffixes they reach, each one time however many t_k share the
    degree."""
    sctx = request.getfixturevalue(name)
    red = sctx.reduction
    fresh = P.ReductionData(red.basis, red.slice_data, red.m_graded,
                            red.is_lagrangian)
    built = {}
    image = P.SymbolDerivation._image

    def counted(self, mono, memo):
        built[(id(self), mono)] = built.get((id(self), mono), 0) + 1
        return image(self, mono, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P.SymbolDerivation, "_image", counted)
        lifts = fresh.coordinate_lifts()
    assert lifts == per_coordinate_lifts(red)
    derivations = [fresh.derivation(x) for x, _ in red.m_graded]
    assert len({id(d) for d in derivations}) == len(red.m_graded)
    assert {key[0] for key in built} <= {id(d) for d in derivations}
    assert max(built.values(), default=1) == 1
    comp_degrees = sctx.comp_chart.degrees
    assert {(id(d), mono) for d in derivations
            for n in set(sctx.slice_data.degrees)
            for mono in P.monomials_of_degree(comp_degrees, n)} <= set(built)


@pytest.mark.parametrize("name", ["sl2_ctx", "sl3_min_lag", "sl3_min_conj",
                                  "sl4_22_conj"])
def test_restricted_bracket_is_the_reduced_bracket(request, name):
    """The bracket on chi + a^perp from the gradient of one lift and the
    Hamiltonian field of the other, the D_{v_p} G2 over the complement
    generators v_p (against the gradient route of `reference.derivation`),
    is `lie_poisson_bracket` of their extensions, restricted to
    chi + a^perp; on integer numerators over one denominator throughout.  Restricted to the slice it is
    `slice_poisson_bracket`, with or without a twist."""
    sctx = request.getfixturevalue(name)
    red, sd = sctx.reduction, sctx.slice_data
    rng = random.Random(23)
    cases = [random_slice_polynomial(sd.chart, rng, 6) for _ in range(6)]
    nc = red.basis.n_complement

    def lift_gradient(F):
        den, ints = backend.int_form(P.invariant_lift(F, red).terms)
        return den, P.gradient(ints, nc)

    for F1, F2 in zip(cases, cases[1:] + [P.KazhdanPolynomial.constant(sd.chart, 3)]):
        grad = lift_gradient(F1)
        field = P.hamiltonian_field(lift_gradient(F2), red)
        den, ints = P.restricted_bracket(grad, field)
        for d, parts in (grad, field, (den, [ints])):
            assert type(d) is int and d > 0
            assert all(type(c) is int for part in parts for c in part.values())
        G1, G2 = P.invariant_lift(F1, red), P.invariant_lift(F2, red)
        field_den, vs = field
        assert len(vs) == nc
        for v, part in zip(red.basis.vectors, vs):
            assert _equals((field_den, part), derivation(red, v, G2).terms)
        full = P.lie_poisson_bracket(P.extend_to_full(G1, red.basis),
                                     P.extend_to_full(G2, red.basis), red.basis)
        on_complement = P.restrict_to_chi_plus_a_perp(full, red.basis)
        assert _equals((den, ints), on_complement.terms)
        scale, image = sd.nu.form(ints)
        reduced = P.slice_poisson_bracket(F1, F2, red)
        assert _equals((scale * den, image), reduced.terms)
        twist = P.KazhdanPolynomial.variable(red.comp_chart, 0)
        assert P.slice_poisson_bracket(F1, F2, red, twist=twist) == reduced


def test_mono_mul_matches_exponent_sum():
    """The product of two monomials adds exponents of equal variables and
    keeps the variables sorted, with a single variable merged into the
    other factor's tuple."""
    rng = random.Random(31)

    def monomial():
        idx = sorted(rng.sample(range(7), rng.randint(0, 4)))
        return tuple((i, rng.randint(1, 3)) for i in idx)

    for _ in range(2000):
        m1, m2 = monomial(), monomial()
        exps = {}
        for i, e in m1 + m2:
            exps[i] = exps.get(i, 0) + e
        assert P.mono_mul(m1, m2) == P.mono_mul(m2, m1) == tuple(sorted(exps.items()))
