"""Slice context: one bundle per (algebra, sl2-triple, isotropic ell).

Building a `SliceContext` runs the whole structural pipeline once --
grading, chi, symplectic data, the (a, n_ell) pair, Ker ad f, adapted PBW
basis, charts -- and caches it for the quotient-module computations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from walg import liealg, poisson
from walg.errors import WalgError
from walg.liealg import LieAlgebra, Sl2Triple
from walg.linalg import QQ, Vector, kernel, rank_of_rows
from walg.pbw import PBWBasis, UEAElement, casimir


class SliceContext:
    __slots__ = ("lie", "triple", "grading", "chi", "symp", "pair", "kerf",
                 "kerf_graded", "basis", "comp_chart",
                 "slice_data", "reduction", "_transversal", "_casimir")

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
        self.comp_chart = poisson.complement_chart(self.basis)
        self.slice_data = poisson.SliceData(self.basis, self.kerf_graded,
                                            self.chi.kappa_ef)
        self.reduction = poisson.ReductionData(
            self.basis, self.slice_data, self.pair.a_graded,
            self.symp.is_lagrangian)
        self._transversal: Optional[bool] = None
        self._casimir: Optional[UEAElement] = None

    def _graded_kerf(self) -> List[Tuple[Vector, int]]:
        """Weight-homogeneous basis of Ker ad f, weights descending: in each
        weight i, the canonical basis of Ker ad f intersected with g(i),
        one `kernel` of ad f stacked on ad h - i."""
        L = self.lie
        adf, adh = L.ad_sparse(self.triple.f), L.ad_sparse(self.triple.h)
        out: List[Tuple[Vector, int]] = []
        for i in sorted(self.grading.weights(), reverse=True):
            for v in kernel(adf.stack(adh.shift(-i))).basis:
                out.append((v, i))
        if len(out) != self.kerf.dim:
            raise WalgError("Ker ad f is not graded; invalid triple")
        return out

    def transversality_rows(self) -> List[Dict[int, QQ]]:
        """Vectors over the complement coordinates y_p: the constant part
        A_x of the derivation D_x, x over the basis `pair.n_graded` of
        n_ell (A_x[p] the constant term of D_x(y_p), read off
        `ReductionData.derivation_images`), then the directions of the
        slice (the k-th has entry the coefficient of t_k in nu(y_p), read
        off `SliceData.nu_images`)."""
        rows = []
        for x, _ in self.pair.n_graded:
            images = self.reduction.derivation_images(x)
            rows.append({p: img.terms[()] for p, img in enumerate(images)
                         if () in img.terms})
        for k in range(len(self.slice_data.degrees)):
            t_k = ((k, 1),)
            rows.append({p: img.terms[t_k] for p, img in
                         enumerate(self.slice_data.nu_images) if t_k in img.terms})
        return rows

    def is_transversal(self) -> bool:
        """Whether the `transversality_rows` span all n_complement
        directions, computed once: the orbit directions of N and the slice
        S together span the tangent space of chi + a^perp at chi, the
        transversality of N x S -> chi + m^perp (Gan-Ginzburg) checked
        rather than assumed.  `whittaker.h_basis` rests its upper bound
        dim gr_k H <= dim C[S]_k on it."""
        if self._transversal is None:
            nc = self.basis.n_complement
            self._transversal = rank_of_rows(self.transversality_rows(), nc) == nc
        return self._transversal

    def casimir_image(self) -> UEAElement:
        """The image in Q of the quadratic Casimir, as its canonical form,
        computed once."""
        if self._casimir is None:
            basis = self.basis
            self._casimir = UEAElement(basis, basis.chi_reduce(casimir(basis).terms))
        return self._casimir

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
