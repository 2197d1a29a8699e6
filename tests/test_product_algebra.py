"""Generality check: a semisimple but non-simple algebra via the table path.

sl2 x sl2 exercises triple completion, gradings and the whole reduction
pipeline away from the matrix-unit sl_n builders; the second case takes a
nilpotent that is regular in one factor only, so Ker ad f contains a full
sl2 and the W-algebra is noncommutative from degree 2 on.
"""

from fractions import Fraction as F

import pytest

from walg.context import build_context
from walg.liealg import LieAlgebra
from walg.whittaker import ce_cohomology, h_basis, verify_theorem

from conftest import span_at, whittaker_spans


@pytest.fixture(scope="module")
def sl2_x_sl2():
    table = {
        (0, 1): {0: F(-2)}, (0, 2): {1: F(1)}, (1, 2): {2: F(-2)},
        (3, 4): {3: F(-2)}, (3, 5): {4: F(1)}, (4, 5): {5: F(-2)},
    }
    return LieAlgebra(["e1", "h1", "f1", "e2", "h2", "f2"], table)


def test_product_regular(sl2_x_sl2):
    ctx = build_context(sl2_x_sl2, (1, 0, 0, 1, 0, 0), "zero")
    assert {i: s.dim for i, s in ctx.grading.pieces.items()} == \
        {-2: 2, 0: 2, 2: 2}
    assert ctx.slice_data.degrees == (4, 4)
    hb = h_basis(8, ctx)
    assert hb.gr_dims == [1, 0, 0, 0, 2, 0, 0, 0, 3]
    verify_theorem(hb)  # a failed clause raises
    spans = whittaker_spans(hb.qb)
    for n in range(9):
        assert spans[n] == span_at(hb, n)


def test_product_regular_in_one_factor(sl2_x_sl2):
    ctx = build_context(sl2_x_sl2, (1, 0, 0, 0, 0, 0), "zero")
    assert {i: s.dim for i, s in ctx.grading.pieces.items()} == \
        {-2: 1, 0: 4, 2: 1}
    assert sorted(ctx.slice_data.degrees) == [2, 2, 2, 4]
    hb = h_basis(4, ctx)
    assert hb.gr_dims == [1, 0, 3, 0, 7]
    verify_theorem(hb)  # a failed clause raises
    h0, h1 = ce_cohomology(1, 4, ctx)
    assert h0 == hb.gr_dims
    assert h1 == [0] * 5
