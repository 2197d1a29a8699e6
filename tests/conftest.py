"""Shared case fixtures; heavy pipelines are computed once per session."""

from fractions import Fraction

import pytest

from walg.liealg import (LieAlgebra, highest_root_triple, make_sln,
                         partition_triple, sln_matrix_to_coords)
from walg.context import build_context
from walg.linalg import Subspace
from walg.poisson import KazhdanPolynomial
from walg.whittaker import h_basis, whittaker_vectors

from reference import unit_vec


def sl2_algebra():
    F = Fraction
    return LieAlgebra(
        ["e", "h", "f"],
        {(0, 1): {0: F(-2)}, (0, 2): {1: F(1)}, (1, 2): {2: F(-2)}})


def span_at(hb, n):
    """F_n H of the basis hb as the canonical Subspace of F_n Q
    coordinates: the span of the forms of degree <= n.  DegreeOverflow for
    n outside 0..hb.n_max."""
    hb._check_degree(n)
    qb = hb.qb
    return Subspace.from_sparse(qb.dim_f(n), [qb.sparse_coords(f)
                                              for f in hb.forms[:hb.dim_f(n)]])


def whittaker_spans(qb):
    """Wh(F_n Q) for n = 0, ..., qb.n, each as the canonical Subspace of
    F_n Q coordinates, from one `whittaker_vectors`: the span of the
    vectors of the free columns of F_n Q."""
    vectors = whittaker_vectors(qb)
    return [Subspace.from_sparse(qb.dim_f(n), [v for f, v in vectors.items()
                                               if f < qb.dim_f(n)])
            for n in range(qb.n + 1)]


def pullback_at(flow, F, t):
    """F pulled back by the time-t flow: sum_k t^k (pullback of F)_k over
    the powers of t of `CoadjointFlow.pullback_formal`, as a polynomial on
    the chart of F."""
    return sum((t ** k * G for k, G in flow.pullback_formal(F).items()),
               KazhdanPolynomial.zero(F.chart))


@pytest.fixture(scope="session")
def sl2():
    return sl2_algebra()


@pytest.fixture(scope="session")
def sl2_ctx(sl2):
    return build_context(sl2, (1, 0, 0), "zero", h=(0, 1, 0), f=(0, 0, 1))


@pytest.fixture(scope="session")
def sl2_hb(sl2_ctx):
    return h_basis(16, sl2_ctx)


@pytest.fixture(scope="session")
def sl3():
    return make_sln(3)


@pytest.fixture(scope="session")
def sl3_min_zero(sl3):
    e, h, f = highest_root_triple(3)
    return build_context(sl3, e, "zero", h=h, f=f)


@pytest.fixture(scope="session")
def sl3_min_lag(sl3):
    e, h, f = highest_root_triple(3)
    return build_context(sl3, e, "lagrangian-auto", h=h, f=f)


@pytest.fixture(scope="session")
def sl3_min_lag2(sl3):
    e, h, f = highest_root_triple(3)
    i32 = sl3.labels.index("E32")
    return build_context(sl3, e, [unit_vec(8, i32)], h=h, f=f)


@pytest.fixture(scope="session")
def sl3_min_conj(sl3):
    """The sl3 minimal nilpotent E_13 conjugated by (1 + E_32)(1 - E_21),
    with the triple completed by the Jacobson-Morozov solver.  Off the
    standard coordinates, `nu` sends some complement coordinate to a sum of
    several slice coordinates."""
    e = sln_matrix_to_coords(3, [[0, -1, 1], [0, 1, -1], [0, 1, -1]])
    return build_context(sl3, e, "lagrangian-auto")


@pytest.fixture(scope="session")
def sl3_hb_zero(sl3_min_zero):
    return h_basis(6, sl3_min_zero)


@pytest.fixture(scope="session")
def sl3_hb_lag(sl3_min_lag):
    return h_basis(6, sl3_min_lag)


@pytest.fixture(scope="session")
def sl3_hb_lag2(sl3_min_lag2):
    return h_basis(6, sl3_min_lag2)


@pytest.fixture(scope="session")
def sl3_principal(sl3):
    e, h, f = partition_triple(3, [3])
    return build_context(sl3, e, "zero", h=h, f=f)


@pytest.fixture(scope="session")
def sl3_hb_principal(sl3_principal):
    return h_basis(10, sl3_principal)


@pytest.fixture(scope="session")
def sl4():
    return make_sln(4)


@pytest.fixture(scope="session")
def sl4_22_conj(sl4):
    """The sl4 [2,2] nilpotent of the seeded conjugate benchmark job; four
    structure constants of its adapted basis are half-integers."""
    return build_context(sl4, (1, 0, 2, 0, -4, 1, 2, 0, 0, -4, 0, 0, 0, 0, 0),
                         "lagrangian-auto")


@pytest.fixture(scope="session")
def sl4_211(sl4):
    e, h, f = partition_triple(4, [2, 1, 1])
    return build_context(sl4, e, "zero", h=h, f=f)


@pytest.fixture(scope="session")
def sl4_regular(sl4):
    e, h, f = partition_triple(4, [4])
    return build_context(sl4, e, "zero", h=h, f=f)


@pytest.fixture(scope="session")
def sl4_hb_211(sl4_211):
    return h_basis(4, sl4_211)
