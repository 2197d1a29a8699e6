"""Second routes the tests check walg's run path against.

Each identity walg verifies is checked by two routes.  Where walg runs
one route and the other serves only as a check, the second lives here,
next to the run-path function it checks:

- `pbw_multiply_rl` (with `mul_terms_rl`, `mono_times_gen` and
  `terms_times_gen`) straightens a PBW product right to left, one
  generator of the right factor at a time, and checks `backend.mul_terms`,
  the left-to-right straightening behind `UEAElement.__mul__`;
- `q_canonical_form` reduces an element straightened in U(g) modulo the
  left ideal, by chopping trailing a-factors (`PBWBasis.chi_reduce`), and
  checks the left action on Q behind `whittaker.q_product`, the ad
  matrices and the products of H;
- `TwoSidedColumns` takes the column of ad x on a monomial m whole, as
  q(x m) - q(m x), with the right action of m on x that it needs, and
  checks `whittaker.AdColumns`, which builds each column by the Leibniz
  rule from the column of its suffix;
- `convert_element` rewrites an element over another PBW basis by
  multiplying generator images, and, reduced by `q_canonical_form`,
  checks `whittaker.q_transport`, the natural map of the
  `ell-independence` check;
- `gr_commutator_vs_poisson` compares nu(gr[a, b]) with the reduced
  bracket of the symbols one pair at a time, with both products in Q and
  the bracket by `poisson.slice_poisson_bracket`, and checks
  `whittaker.gr_commutators_vs_poisson`, the one-pass `poisson` check.

`unit_vec` is the coordinate vector the tests build their inputs from.
"""

from fractions import Fraction as F

from walg import backend, poisson, whittaker as W
from walg.errors import DegreeOverflow, WalgError
from walg.pbw import UEAElement


def unit_vec(dim, k):
    """The k-th unit vector of length dim, with Fraction entries."""
    return tuple(F(int(i == k)) for i in range(dim))


def mono_times_gen(mono, g, bracket, cache):
    """Straighten mono * x_g (right multiplication by a generator),
    rewriting x_j x_g -> x_g x_j + [x_j, x_g] for j > g at the right end."""
    if not mono:
        return {((g, 1),): 1}
    hit = cache.get((mono, g))
    if hit is not None:
        return hit
    j, e = mono[-1]
    if g > j:
        out = {mono + ((g, 1),): 1}
    elif g == j:
        out = {mono[:-1] + ((g, e + 1),): 1}
    else:
        head = mono[:-1] + ((j, e - 1),) if e > 1 else mono[:-1]
        out = {}
        for n1, c1 in mono_times_gen(head, g, bracket, cache).items():
            for n2, c2 in mono_times_gen(n1, j, bracket, cache).items():
                backend._acc(out, n2, c1 * c2)
        for k, c in bracket.get((g, j), ()):
            # [x_j, x_g] = -[x_g, x_j]
            for n1, c1 in mono_times_gen(head, k, bracket, cache).items():
                backend._acc(out, n1, -c * c1)
    cache[(mono, g)] = out
    return out


def terms_times_gen(terms, g, bracket, cache):
    out = {}
    for mono, c in terms.items():
        for n, c1 in mono_times_gen(mono, g, bracket, cache).items():
            backend._acc(out, n, c * c1)
    return out


def mul_terms_rl(t1, t2, bracket, cache):
    """PBW product of term dicts, reducing right to left."""
    out = {}
    for mono, c in t2.items():
        acc = t1
        for idx, exp in mono:
            for _ in range(exp):
                acc = terms_times_gen(acc, idx, bracket, cache)
        for n, c1 in acc.items():
            backend._acc(out, n, c * c1)
    return out


# right-multiplication caches, one per PBW basis
_RIGHT_CACHES = {}


def pbw_multiply_rl(u, v):
    """u v straightened right to left; the confluence cross-check of the
    product `u * v`."""
    u._check(v)
    b = u.basis
    cache = _RIGHT_CACHES.setdefault(b, {})
    return UEAElement(b, mul_terms_rl(u.terms, v.terms, b.bracket, cache))


def q_canonical_form(u, sctx):
    """Image of u in Q_ell as its canonical complement-monomial form."""
    return UEAElement(sctx.basis, sctx.basis.chi_reduce(u.terms))


def convert_element(u, target):
    """u rewritten over the PBW basis `target` of the same algebra, as a
    sum of products of generator images, one factor at a time."""
    images = [target.element_from_ambient(v) for v in u.basis.vectors]
    out = target.zero()
    for m, c in u.terms.items():
        acc = target.one() * c
        for idx, exp in m:
            for _ in range(exp):
                acc = acc * images[idx]
        out = out + acc
    return out


class TwoSidedColumns:
    """The column q([x, m]) of ad x on a monomial m of Q as q(x m) minus
    q(m x), each taken whole: x by one step, and m by the left action on
    x, the one right multiplication on Q.  Checks `whittaker.AdColumns`,
    which builds each column by the Leibniz rule from its suffix's."""

    def __init__(self, x, sctx):
        basis = sctx.basis
        xe = basis.element_from_ambient(x).terms
        self.basis = basis
        self.den, self.gens = W._linear(xe)
        self.right = W._left_action(basis, W._generator_steps(basis), xe)

    def column(self, mono):
        """q(x m) - q(m x) as an integer form in lowest terms."""
        return backend.lowest_form(backend.combine(
            [(1, (self.den, W._step(self.basis, self.gens, {mono: 1}))),
             (-1, self.right.image(mono))]))


def gr_commutator_vs_poisson(a, b, hb):
    """Whether nu(gr[a, b]) is the reduced slice bracket of the symbols.

    The two sides come from independent pipelines: the commutator taken in
    Q (`whittaker.q_product`) followed by nu, against invariant lift,
    Lie-Poisson bracket and restriction (`poisson.slice_poisson_bracket`).
    """
    sctx = hb.sctx
    if not sctx.is_lagrangian:
        raise WalgError("the reduced bracket needs a Lagrangian ell")
    da = a.kazhdan_degree() or 0
    db = b.kazhdan_degree() or 0
    if da + db > hb.n_max:
        raise DegreeOverflow("commutator degree outside computed range")
    comm = W.q_product(a, b, sctx) - W.q_product(b, a, sctx)
    cd = comm.kazhdan_degree()
    if cd is not None and cd > da + db - 2:
        raise WalgError("commutator violates the filtration degree law")
    lhs = W.nu_map(comm, sctx, da + db - 2)
    rhs = poisson.slice_poisson_bracket(W.nu_map(a, sctx, da),
                                        W.nu_map(b, sctx, db), sctx.reduction)
    return lhs == rhs
