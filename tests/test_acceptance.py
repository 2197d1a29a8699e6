"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Expected values marked as derived are recomputed here by
independent oracles (brute-force monomial counting for Hilbert series,
independent reduction orders for straightening) and frozen inline.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from walg import poisson, whittaker as W
from walg.context import build_context
from walg.liealg import (decomposition_check, highest_root_triple, make_sln,
                         partition_triple, structure_checks)
from walg.pbw import casimir
from walg.poisson import KazhdanPolynomial as KP
from walg.whittaker import h_basis
from conftest import pullback_at, sl2_algebra, span_at, whittaker_spans
from reference import (gr_commutator_vs_poisson, pbw_multiply_rl,
                       q_canonical_form, unit_vec)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {desc}")
        raise
    print(f"criterion {num:2d} PASS  {desc}")


def brute_hilbert(degrees, n_max):
    """Independent oracle: count exponent tuples of each weighted degree."""
    dims = [0] * (n_max + 1)
    ranges = [range(0, n_max // d + 1) for d in degrees]
    for exps in itertools.product(*ranges):
        n = sum(e * d for e, d in zip(exps, degrees))
        if n <= n_max:
            dims[n] += 1
    return dims


SL2_DIMS_16 = [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]
SL3_MIN_DIMS_6 = [1, 0, 1, 2, 2, 2, 5]
SL3_PRIN_DIMS_10 = [1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1]


def all_case_contexts():
    """Every tested (algebra, triple, ell) combination, built fresh."""
    sl2 = sl2_algebra()
    sl3 = make_sln(3)
    sl4 = make_sln(4)
    e3, h3, f3 = highest_root_triple(3)
    ep, hp, fp = partition_triple(3, [3])
    e4, h4, f4 = partition_triple(4, [2, 1, 1])
    i32 = sl3.labels.index("E32")
    return [
        ("sl2 regular ell=0",
         build_context(sl2, (1, 0, 0), "zero", h=(0, 1, 0), f=(0, 0, 1))),
        ("sl3 minimal ell=0", build_context(sl3, e3, "zero", h=h3, f=f3)),
        ("sl3 minimal ell=<E21>",
         build_context(sl3, e3, "lagrangian-auto", h=h3, f=f3)),
        ("sl3 minimal ell=<E32>",
         build_context(sl3, e3, [unit_vec(8, i32)], h=h3, f=f3)),
        ("sl3 principal ell=0", build_context(sl3, ep, "zero", h=hp, f=fp)),
        ("sl4 [2,1,1] ell=0", build_context(sl4, e4, "zero", h=h4, f=f4)),
    ]


def test_c01_structural_validation():
    with criterion(1, "structural validation on sl2, sl3, sl4"):
        t0 = time.perf_counter()
        for name, sctx in all_case_contexts():
            flags = structure_checks(sctx.lie, sctx.grading)
            assert all(flags.values()), (name, flags)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, f"structural validation took {elapsed:.1f}s"


def test_c02_decomposition():
    with criterion(2, "a^perp = [n_ell,e] (+) Ker ad f on all cases"):
        t0 = time.perf_counter()
        for name, sctx in all_case_contexts():
            rep = decomposition_check(sctx.lie, sctx.triple, sctx.grading,
                                      sctx.pair, sctx.kerf)
            assert rep["dim_a_perp"] == \
                rep["dim_n"] + rep["dim_g0"] + rep["dim_gm1"], name
        elapsed = time.perf_counter() - t0
        assert elapsed < 10, f"decomposition checks took {elapsed:.1f}s"


@pytest.mark.parametrize("case,expected", [
    ("sl2-16", SL2_DIMS_16),
    ("sl3-principal-10", SL3_PRIN_DIMS_10),
    ("sl3-minimal-zero-6", SL3_MIN_DIMS_6),
    ("sl3-minimal-lagrangian-6", SL3_MIN_DIMS_6),
])
def test_c03_theorem_dimensions(case, expected):
    with criterion(3, f"dim gr_n H = dim C[S]_n ({case})"):
        t0 = time.perf_counter()
        if case == "sl2-16":
            sctx, n_max = build_context(sl2_algebra(), (1, 0, 0), "zero",
                                        h=(0, 1, 0), f=(0, 0, 1)), 16
        elif case == "sl3-principal-10":
            e, h, f = partition_triple(3, [3])
            sctx, n_max = build_context(make_sln(3), e, "zero", h=h, f=f), 10
        elif case == "sl3-minimal-zero-6":
            e, h, f = highest_root_triple(3)
            sctx, n_max = build_context(make_sln(3), e, "zero", h=h, f=f), 6
        else:
            e, h, f = highest_root_triple(3)
            sctx, n_max = build_context(make_sln(3), e, "lagrangian-auto",
                                        h=h, f=f), 6
        hb = h_basis(n_max, sctx)
        oracle = brute_hilbert(sctx.slice_data.degrees, n_max)
        assert oracle == expected
        assert hb.gr_dims == expected
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"{case} took {elapsed:.1f}s"


def test_c04_theorem_algebra_clause(sl2_hb, sl3_hb_zero, sl3_hb_lag,
                                    sl3_hb_principal):
    with criterion(4, "nu degreewise injective and multiplicative"):
        for hb in (sl2_hb, sl3_hb_zero, sl3_hb_lag, sl3_hb_principal):
            _, table = W.verify_theorem(hb)  # a failed clause raises
            assert len(table) > 0


def test_c05_theorem_poisson_clause(sl2_ctx, sl2_hb, sl3_min_lag, sl3_hb_lag):
    with criterion(5, "nu(gr[a,b]) = {nu gr a, nu gr b}_S on generator pairs"):
        for hb in (sl2_hb, sl3_hb_lag):
            pairs = 0
            for i, a in enumerate(hb.elements):
                if hb.degrees[i] == 0:
                    continue
                for j in range(i, len(hb.elements)):
                    if hb.degrees[j] == 0:
                        continue
                    if hb.degrees[i] + hb.degrees[j] > hb.n_max:
                        continue
                    assert gr_commutator_vs_poisson(a, hb.elements[j], hb)
                    pairs += 1
            assert pairs > 0


def test_c06_ell_independence(sl3_hb_zero, sl3_hb_lag, sl3_hb_lag2):
    with criterion(6, "H_0 -> H_ell bijective for both sl3 Lagrangians"):
        for hb in (sl3_hb_lag, sl3_hb_lag2):
            rep = W.ell_comparison(sl3_hb_zero, hb)  # a failed clause raises
            assert rep["mult_pairs"] > 0
            assert rep["dims1"] == rep["dims2"] == SL3_MIN_DIMS_6


def test_c07_cohomology(sl2_ctx, sl2_hb, sl3_min_zero, sl3_hb_zero,
                        sl3_min_lag, sl3_hb_lag):
    with criterion(7, "H^0 = C[S], H^1 = 0, gr H^0(Q) = H^0(gr Q), n <= 6"):
        for sctx, hb in ((sl2_ctx, sl2_hb), (sl3_min_zero, sl3_hb_zero),
                         (sl3_min_lag, sl3_hb_lag)):
            h0, h1 = W.ce_cohomology(1, 6, sctx)
            slice_dims = brute_hilbert(sctx.slice_data.degrees, 6)
            assert h0 == slice_dims
            assert h1 == [0] * 7
            assert hb.gr_dims[:7] == h0


def test_c08_whittaker_identification(sl2_hb, sl3_hb_lag, sl3_hb_lag2):
    with criterion(8, "Wh(F_n Q) = F_n H for n <= 6 (Lagrangian cases)"):
        for hb in (sl2_hb, sl3_hb_lag, sl3_hb_lag2):
            spans = whittaker_spans(hb.qb)
            for n in range(7):
                assert spans[n] == span_at(hb, n)


def test_c09_center_injects(sl2_ctx, sl2_hb, sl3_hb_zero, sl3_hb_lag,
                            sl3_hb_principal):
    with criterion(9, "Casimir image in H, nonconstant, nonzero nu-image"):
        for hb in (sl2_hb, sl3_hb_zero, sl3_hb_lag, sl3_hb_principal):
            W.center_injects(hb)  # a failed clause raises
        # sl2: kappa(e,f) q(Omega) is exactly 2e - h + h^2/2, nu-image 2t
        B = sl2_ctx.basis
        img = q_canonical_form(casimir(B), sl2_ctx)
        scaled = sl2_ctx.chi.kappa_ef * img
        e, h = B.generator(0), B.generator(1)
        assert scaled == 2 * e - h + F(1, 2) * (h * h)
        assert W.nu_map(scaled, sl2_ctx, scaled.kazhdan_degree()) == \
            KP.variable(sl2_ctx.slice_data.chart, 0, 2)


def test_c10_engine_properties(sl3_min_lag):
    with criterion(10, "engine: associativity, confluence, filtration, "
                       "extensions, flows"):
        t0 = time.perf_counter()
        rng = random.Random(99)
        algebras = []
        for sctx_builder in ("sl2", "sl3", "sl4"):
            if sctx_builder == "sl2":
                ctx = build_context(sl2_algebra(), (1, 0, 0), "zero",
                                    h=(0, 1, 0), f=(0, 0, 1))
            elif sctx_builder == "sl3":
                e, h, f = highest_root_triple(3)
                ctx = build_context(make_sln(3), e, "zero", h=h, f=f)
            else:
                e, h, f = partition_triple(4, [2, 1, 1])
                ctx = build_context(make_sln(4), e, "zero", h=h, f=f)
            algebras.append(ctx.basis)

        def rand_elem(B, n_terms=2, max_len=3):
            out = B.zero()
            for _ in range(n_terms):
                w = B.one() * F(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(rng.randint(0, max_len)):
                    w = w * B.generator(rng.randrange(B.lie.dim))
                out = out + w
            return out

        for B in algebras:
            for _ in range(100):
                u, v, w = rand_elem(B), rand_elem(B), rand_elem(B)
                assert (u * v) * w == u * (v * w)
                assert u * v == pbw_multiply_rl(u, v)
                if not (u.is_zero() or v.is_zero()):
                    du, dv = u.kazhdan_degree(), v.kazhdan_degree()
                    prod, comm = u * v, u * v - v * u
                    if not prod.is_zero():
                        assert prod.kazhdan_degree() <= du + dv
                    if not comm.is_zero():
                        assert comm.kazhdan_degree() <= du + dv - 2
        # extension-independence of the reduced bracket
        chart = sl3_min_lag.slice_data.chart
        comp = sl3_min_lag.comp_chart
        twist = KP.variable(comp, 1) + KP.constant(comp, 3)
        for i, j in ((0, 1), (1, 2), (0, 3)):
            a, b = KP.variable(chart, i), KP.variable(chart, j)
            assert poisson.slice_poisson_bracket(a, b, sl3_min_lag.reduction) \
                == poisson.slice_poisson_bracket(a, b, sl3_min_lag.reduction,
                                                 twist=twist)
        # flow identities at random rational times, on the coordinates
        B3 = sl3_min_lag.basis
        coords = [KP.variable(comp, p) for p in range(B3.n_complement)]
        for x, _ in sl3_min_lag.pair.n_graded:
            fl = poisson.CoadjointFlow(B3, x)
            for _ in range(5):
                t = F(rng.randint(-8, 8), rng.randint(1, 6))
                s = F(rng.randint(-8, 8), rng.randint(1, 6))
                for y in coords:
                    assert pullback_at(fl, pullback_at(fl, y, s), t) == \
                        pullback_at(fl, y, t + s)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"engine properties took {elapsed:.1f}s"
