"""Slice context: one bundle per (algebra, sl2-triple, isotropic ell).

Building a `SliceContext` runs the whole structural pipeline once --
grading, chi, symplectic data, the (a, n_ell) pair, Ker ad f, adapted PBW
basis, charts -- and caches it for the quotient-module computations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from walg import liealg, poisson
from walg.errors import WalgError
from walg.liealg import LieAlgebra, Sl2Triple
from walg.linalg import Vector
from walg.pbw import PBWBasis


class SliceContext:
    __slots__ = ("lie", "triple", "grading", "chi", "symp", "pair", "kerf",
                 "kerf_graded", "basis", "full_chart", "comp_chart",
                 "slice_data", "reduction")

    def __init__(self, lie: LieAlgebra, triple: Sl2Triple,
                 ell_spec: Sequence[Sequence]):
        self.lie = lie
        self.triple = triple
        self.grading = liealg.ad_h_grading(lie, triple)
        self.chi = liealg.chi(lie, triple)
        self.symp = liealg.symplectic_data(lie, triple, self.grading,
                                           ell_spec, self.chi)
        self.pair = liealg.make_nilpotent_pair(lie, self.grading, self.symp,
                                               self.chi)
        self.kerf = liealg.ker_ad_f(lie, triple)
        self.kerf_graded = self._graded_kerf()
        self.basis = PBWBasis.adapted(lie, self.grading, self.pair, self.chi)
        self.full_chart = poisson.full_chart(self.basis)
        self.comp_chart = poisson.complement_chart(self.basis)
        self.slice_data = poisson.SliceData(self.basis, self.kerf_graded,
                                            self.chi.kappa_ef)
        self.reduction = poisson.ReductionData(
            self.basis, self.slice_data, self.pair.a_graded,
            self.symp.is_lagrangian)

    def _graded_kerf(self) -> List[Tuple[Vector, int]]:
        """Weight-homogeneous basis of Ker ad f, weights descending."""
        from walg.linalg import sum_and_intersection
        out: List[Tuple[Vector, int]] = []
        for i in sorted(self.grading.weights(), reverse=True):
            _, meet = sum_and_intersection(self.grading.piece(i), self.kerf)
            for v in meet.basis:
                out.append((v, i))
        if len(out) != self.kerf.dim:
            raise WalgError("Ker ad f is not graded; invalid triple")
        return out

    @property
    def is_lagrangian(self) -> bool:
        return self.symp.is_lagrangian

    def hilbert_q(self, n_max: int) -> List[int]:
        """Graded dimensions of C[chi + a^perp] up to n_max."""
        return poisson.series_expand(self.comp_chart.degrees, n_max)

    def hilbert_slice(self, n_max: int) -> List[int]:
        return poisson.slice_hilbert_series(self.slice_data, n_max)


def build_context(lie: LieAlgebra, e: Sequence, ell: Optional[object] = None,
                  h: Optional[Sequence] = None,
                  f: Optional[Sequence] = None) -> SliceContext:
    """Assemble a SliceContext from raw vectors.

    `ell` is a list of coordinate vectors, the string "zero", or
    "lagrangian-auto" (greedy canonical Lagrangian).  When h and f are
    omitted the triple is completed by the Jacobson-Morozov solver.
    """
    if h is not None and f is not None:
        triple = Sl2Triple(lie, e, h, f)
    else:
        triple = liealg.complete_sl2_triple(lie, e)
    if ell is None or ell == "zero":
        ell_spec: List = []
    elif ell == "lagrangian-auto":
        # the grading and chi are kept on the triple for the context
        ell_spec = liealg.lagrangian_auto(lie, liealg.ad_h_grading(lie, triple),
                                          liealg.chi(lie, triple))
    else:
        ell_spec = list(ell)
    return SliceContext(lie, triple, ell_spec)
