"""Lie algebra layer: construction, triples, gradings, slice data."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walg import liealg
from walg.errors import (DecompositionFailure, DegenerateKillingForm,
                         JacobiViolation, NotIsotropic, NotInsideGm1,
                         NotNilpotent, WalgError)
from walg.liealg import (LieAlgebra, Sl2Triple, ad_h_grading, chi,
                         complete_sl2_triple, decomposition_check,
                         highest_root_triple, ker_ad_f, lagrangian_auto,
                         make_nilpotent_pair, make_sln, partition_triple,
                         sln_basis_matrices, sln_matrix_to_coords,
                         structure_checks, symplectic_data)
from walg.linalg import SparseMatrix, Subspace, vec

from conftest import sl2_algebra
from reference import unit_vec


def test_sl2_table_valid():
    L = sl2_algebra()
    assert L.dim == 3


def test_abelian_is_degenerate():
    with pytest.raises(DegenerateKillingForm):
        LieAlgebra(["x", "y"], {})


def test_broken_sl2_violates_jacobi():
    # [e,f] = e instead of h
    with pytest.raises(JacobiViolation):
        LieAlgebra(["e", "h", "f"],
                         {(0, 1): {0: F(-2)}, (0, 2): {0: F(1)},
                          (1, 2): {2: F(-2)}})


@pytest.mark.parametrize("n,dim", [(2, 3), (3, 8), (4, 15)])
def test_sln_dimensions(n, dim):
    assert make_sln(n).dim == dim


def sln_table_reference(n):
    """The sl_n bracket table from dense `Fraction` matrix commutators, the
    construction `make_sln` replaced."""
    labels, mats = sln_basis_matrices(n)

    def mul(A, B):
        return [[sum((A[i][k] * B[k][j] for k in range(n)), F(0))
                 for j in range(n)] for i in range(n)]

    table = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            AB = mul(mats[i], mats[j])
            BA = mul(mats[j], mats[i])
            C = [[AB[r][c] - BA[r][c] for c in range(n)] for r in range(n)]
            entry = {k: v for k, v in enumerate(sln_matrix_to_coords(n, C))
                     if v}
            if entry:
                table[(i, j)] = entry
    return table


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sln_table_matches_dense_commutators(n):
    table = make_sln(n).table
    ref = sln_table_reference(n)
    assert list(table) == list(ref)
    assert [list(e.items()) for e in table.values()] == \
        [list(e.items()) for e in ref.values()]


def jacobi_reference(labels, table):
    """The dense Jacobi check the sparse one replaced: every basis triple
    i < j < k in lexicographic order, with a dense accumulator.  Returns the
    first violation as (labels, acc), or None."""
    d = len(labels)

    def br(i, j):
        if i <= j:
            return table.get((i, j), {})
        return {k: -c for k, c in table.get((j, i), {}).items()}

    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = [F(0)] * d
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c1 in br(a, b).items():
                        for t, c2 in br(m, c).items():
                            acc[t] += c1 * c2
                if any(acc):
                    return (labels[i], labels[j], labels[k]), tuple(acc)
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sln_passes_jacobi_and_keeps_int_constants(n):
    L = make_sln(n)
    assert jacobi_reference(L.labels, L.table) is None
    L._check_jacobi()
    assert all(type(c) is int for v in L.table.values() for c in v.values())


def test_fractional_constant_stays_fraction():
    # basis e, h, f/3 of sl2: [e, f/3] = h/3
    L = LieAlgebra(["e", "h", "f3"], {(0, 1): {0: F(-2)}, (0, 2): {1: F(1, 3)},
                                      (1, 2): {2: F(-2)}})
    assert L.table[(0, 2)] == {1: F(1, 3)} and type(L.table[(0, 1)][0]) is int
    assert L.bracket_basis(2, 0) == {1: F(-1, 3)}


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([3, 4]), data=st.data())
def test_sparse_jacobi_matches_dense_reference(n, data):
    """Perturb one structure constant of sl3 or sl4, a vanishing one
    included; the sparse check raises on the same first triple with the
    same residual as the dense reference, or both pass."""
    L = make_sln(n)
    table = {key: dict(v) for key, v in L.table.items()}
    key = data.draw(st.sampled_from([(i, j) for i in range(L.dim)
                                     for j in range(i + 1, L.dim)]))
    k = data.draw(st.integers(0, L.dim - 1))
    delta = data.draw(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4).filter(bool))
    entry = table.setdefault(key, {})
    entry[k] = entry.get(k, 0) + delta
    expected = jacobi_reference(L.labels, table)
    if expected is None:
        try:
            LieAlgebra(L.labels, table)
        except DegenerateKillingForm:
            pass
    else:
        with pytest.raises(JacobiViolation) as info:
            LieAlgebra(L.labels, table)
        assert (info.value.triple, info.value.residual) == expected
        assert all(type(c) is F for c in info.value.residual)


def test_sln_rejects_small_n():
    with pytest.raises(WalgError):
        make_sln(1)


def killing_matrix(L):
    """kappa(x_i, x_j) on the basis, by `LieAlgebra.killing` of unit
    vectors."""
    units = [unit_vec(L.dim, i) for i in range(L.dim)]
    return [[L.killing(x, y) for y in units] for x in units]


def test_killing_sl2_values():
    K = killing_matrix(sl2_algebra())
    assert K[0][2] == 4 and K[1][1] == 8
    assert K[0][0] == 0 and K[2][2] == 0 and K[0][1] == 0


def test_killing_sl3_is_six_times_trace():
    """kappa = 2n tr(xy) on the matrix realization of sl_n."""
    L = make_sln(3)
    K = killing_matrix(L)
    labels, mats = sln_basis_matrices(3)

    def tr_prod(A, B):
        return sum(A[i][k] * B[k][i] for i in range(3) for k in range(3))

    for i in range(L.dim):
        for j in range(L.dim):
            assert K[i][j] == 6 * tr_prod(mats[i], mats[j])
    assert K[labels.index("E13")][labels.index("E31")] == 6


def test_complete_triple_sl2():
    L = sl2_algebra()
    t = complete_sl2_triple(L, (1, 0, 0))
    assert L.bracket(t.h, t.e) == (F(2), F(0), F(0))


def test_complete_triple_sl3_minimal():
    L = make_sln(3)
    e = unit_vec(8, L.labels.index("E13"))
    t = complete_sl2_triple(L, e)
    # solver lands on the standard triple: h acts as diag(1,0,-1), f = E31
    assert t.f == unit_vec(8, L.labels.index("E31"))
    assert t.h == vec([0, 0, 0, 1, 1, 0, 0, 0], 8)


def test_complete_triple_rejects_semisimple():
    L = make_sln(3)
    # E11 - E22 = H1
    with pytest.raises(NotNilpotent):
        complete_sl2_triple(L, unit_vec(8, L.labels.index("H1")))


def test_complete_triple_forms_no_power_of_ad_e(sl4, monkeypatch):
    """A solution of (ad e)^2 y = -2e gives [h, e] = 2e, which already makes
    ad e nilpotent: completing the sl4 [2,2] conjugate of the benchmark
    never forms the powers of ad e."""
    calls = []
    original = SparseMatrix.nilpotent_powers

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SparseMatrix, "nilpotent_powers", counted)
    e = (1, 0, 2, 0, -4, 1, 2, 0, 0, -4, 0, 0, 0, 0, 0)
    t = complete_sl2_triple(sl4, e)
    assert sl4.bracket(t.h, t.e) == tuple(2 * c for c in t.e)
    assert calls == []


def test_complete_triple_rejects_zero():
    with pytest.raises(NotNilpotent):
        complete_sl2_triple(sl2_algebra(), (0, 0, 0))


def test_grading_sl2(sl2_ctx):
    dims = {i: s.dim for i, s in sl2_ctx.grading.pieces.items()}
    assert dims == {-2: 1, 0: 1, 2: 1}


def test_grading_sl3_minimal(sl3_min_zero):
    dims = {i: s.dim for i, s in sl3_min_zero.grading.pieces.items()}
    assert dims == {-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}


def test_grading_sl3_principal(sl3_principal):
    dims = {i: s.dim for i, s in sl3_principal.grading.pieces.items()}
    assert dims == {-4: 1, -2: 2, 0: 2, 2: 2, 4: 1}


def test_chi_sl2(sl2_ctx):
    ch = sl2_ctx.chi
    assert ch((0, 0, 1)) == 1
    assert ch((1, 0, 0)) == 0 and ch((0, 1, 0)) == 0


def test_chi_sl3_minimal_picks_E31(sl3):
    e, h, f = highest_root_triple(3)
    t = Sl2Triple(sl3, e, h, f)
    ch = chi(sl3, t)
    for lbl in sl3.labels:
        expected = 1 if lbl == "E31" else 0
        assert ch(unit_vec(8, sl3.labels.index(lbl))) == expected


def test_chi_vanishes_off_weight_minus_two(sl3_min_zero):
    for i, piece in sl3_min_zero.grading.pieces.items():
        if i == -2:
            continue
        for v in piece.basis:
            assert sl3_min_zero.chi(v) == 0


def test_omega_sl3_minimal(sl3_min_zero):
    symp = sl3_min_zero.symp
    # gm1 echelon basis is (E21, E32); omega(E21, E32) = chi(-E31) = -1
    assert symp.omega == ((F(0), F(-1)), (F(1), F(0)))


def test_ell_outside_gm1_rejected(sl3):
    e, h, f = highest_root_triple(3)
    t = Sl2Triple(sl3, e, h, f)
    g = ad_h_grading(sl3, t)
    ch = chi(sl3, t)
    with pytest.raises(NotInsideGm1):
        symplectic_data(sl3, t, g, [unit_vec(8, sl3.labels.index("E12"))], ch)


def test_non_isotropic_rejected(sl4):
    e, h, f = partition_triple(4, [2, 1, 1])
    t = Sl2Triple(sl4, e, h, f)
    g = ad_h_grading(sl4, t)
    ch = chi(sl4, t)
    gm1 = g.piece(-1).basis
    u, v = next((u, v) for u in gm1 for v in gm1 if ch(sl4.bracket(u, v)))
    with pytest.raises(NotIsotropic):
        symplectic_data(sl4, t, g, [u, v], ch)


def test_lagrangian_auto_sl2(sl2_ctx):
    got = lagrangian_auto(sl2_ctx.lie, sl2_ctx.grading, sl2_ctx.chi)
    assert got == []


def test_lagrangian_auto_sl3(sl3_min_zero):
    got = lagrangian_auto(sl3_min_zero.lie, sl3_min_zero.grading,
                          sl3_min_zero.chi)
    assert len(got) == 1
    assert sl3_min_zero.lie.label_of_vector(got[0]) == "E21"


def test_nilpotent_pair_sl2(sl2_ctx):
    pair = sl2_ctx.pair
    assert pair.a == pair.n_ell == Subspace(3, [[0, 0, 1]])


def test_nilpotent_pair_sl3_zero(sl3_min_zero):
    L = sl3_min_zero.lie
    pair = sl3_min_zero.pair
    assert pair.a == Subspace(8, [unit_vec(8, L.labels.index("E31"))])
    expected = Subspace(8, [unit_vec(8, L.labels.index(x))
                            for x in ("E21", "E32", "E31")])
    assert pair.n_ell == expected


def test_nilpotent_pair_sl3_lagrangian(sl3_min_lag):
    L = sl3_min_lag.lie
    pair = sl3_min_lag.pair
    expected = Subspace(8, [unit_vec(8, L.labels.index(x))
                            for x in ("E21", "E31")])
    assert pair.a == expected and pair.n_ell == expected


def test_ker_ad_f_sl2(sl2_ctx):
    assert sl2_ctx.kerf == Subspace(3, [[0, 0, 1]])


def test_ker_ad_f_sl3_minimal(sl3_min_zero):
    L = sl3_min_zero.lie
    kf = sl3_min_zero.kerf
    assert kf.dim == 4
    for lbl in ("E31", "E21", "E32"):
        assert kf.contains(unit_vec(8, L.labels.index(lbl)))
    # diag(1,-2,1) = H1 - H2 in the difference basis
    diag = [F(0)] * 8
    diag[L.labels.index("H1")] = F(1)
    diag[L.labels.index("H2")] = F(-1)
    assert kf.contains(diag)


def test_ker_ad_f_principal_is_rank(sl3_principal):
    assert sl3_principal.kerf.dim == 2


def test_decomposition_sl2(sl2_ctx):
    rep = decomposition_check(sl2_ctx.lie, sl2_ctx.triple, sl2_ctx.grading,
                              sl2_ctx.pair, sl2_ctx.kerf)
    assert rep["dim_a_perp"] == 2
    assert rep["dim_bracket_ne"] == 1 and rep["dim_kerf"] == 1


@pytest.mark.parametrize("fixture", ["sl3_min_zero", "sl3_min_lag",
                                     "sl3_min_lag2", "sl3_principal", "sl4_211"])
def test_decomposition_cases(fixture, request):
    sctx = request.getfixturevalue(fixture)
    rep = decomposition_check(sctx.lie, sctx.triple, sctx.grading, sctx.pair,
                              sctx.kerf)
    assert rep["dim_a_perp"] == rep["dim_n"] + rep["dim_g0"] + rep["dim_gm1"]
    assert rep["dim_a_perp"] == rep["dim_bracket_ne"] + rep["dim_kerf"]


def test_decomposition_sl3_lagrangian_dims(sl3_min_lag):
    rep = decomposition_check(sl3_min_lag.lie, sl3_min_lag.triple,
                              sl3_min_lag.grading, sl3_min_lag.pair,
                              sl3_min_lag.kerf)
    assert (rep["dim_a_perp"], rep["dim_bracket_ne"], rep["dim_kerf"]) == \
        (6, 2, 4)


@pytest.mark.parametrize("change, message, dim_kerf", [
    ("add an image", "[n_ell,e] meets Ker ad f", 5),
    ("drop a vector", "[n_ell,e] + Ker ad f != a^perp", 3),
])
def test_decomposition_rejects_a_wrong_kerf(sl3_min_lag, change, message,
                                            dim_kerf):
    """Negative control: in place of Ker ad f, a space that meets [n_ell, e]
    (Ker ad f plus [x, e] for the first x of n_ell) or one too small (its
    last basis vector dropped).  The witness is the dimensions alone."""
    sctx = sl3_min_lag
    L, kerf = sctx.lie, sctx.kerf
    if change == "add an image":
        x = sctx.pair.n_graded[0][0]
        vectors = list(kerf.basis) + [L.bracket(x, sctx.triple.e)]
    else:
        vectors = list(kerf.basis)[:-1]
    with pytest.raises(DecompositionFailure, match=re.escape(message)) as err:
        decomposition_check(L, sctx.triple, sctx.grading, sctx.pair,
                            Subspace(L.dim, vectors))
    assert err.value.dims == {"dim_a_perp": 6, "dim_bracket_ne": 2,
                              "dim_kerf": dim_kerf, "dim_n": 2, "dim_g0": 2,
                              "dim_gm1": 2}


@pytest.mark.parametrize("fixture", ["sl2_ctx", "sl3_min_zero", "sl3_min_lag",
                                     "sl3_principal", "sl4_211"])
def test_structure_checks_pass(fixture, request):
    sctx = request.getfixturevalue(fixture)
    flags = structure_checks(sctx.lie, sctx.grading)
    assert all(flags.values()), flags


def test_grading_and_chi_once_per_triple(sl3):
    """Every context on one triple shares the triple's grading and chi."""
    from walg.context import SliceContext, build_context

    e, h, f = highest_root_triple(3)
    sctx = build_context(sl3, e, "lagrangian-auto", h=h, f=f)
    assert sctx.grading is ad_h_grading(sl3, sctx.triple)
    assert sctx.chi is chi(sl3, sctx.triple)
    other = SliceContext(sl3, sctx.triple, [])
    assert other.grading is sctx.grading and other.chi is sctx.chi
    assert not other.is_lagrangian and sctx.is_lagrangian


def test_partition_triples_satisfy_relations(sl4):
    for parts in ([4], [3, 1], [2, 2], [2, 1, 1]):
        e, h, f = partition_triple(4, parts)
        Sl2Triple(sl4, e, h, f)  # validates the three relations


def test_partition_all_ones_rejected():
    with pytest.raises(NotNilpotent):
        partition_triple(3, [1, 1, 1])


def test_bad_partition_rejected():
    with pytest.raises(WalgError):
        partition_triple(4, [1, 2, 1])


def test_algebra_json_roundtrip(tmp_path):
    doc = {
        "labels": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "value": [[0, "-2"]]},
            {"i": 0, "j": 2, "value": [[1, "1"]]},
            {"i": 1, "j": 2, "value": [[2, "-2"]]},
        ],
        "nilpotent": ["1", "0", "0"],
    }
    import json
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(doc))
    L, extras = liealg.load_algebra_file(str(path))
    assert L.dim == 3
    assert L.bracket((1, 0, 0), (0, 0, 1)) == (F(0), F(1), F(0))
    assert extras["nilpotent"] == ["1", "0", "0"]
