"""Hot kernels: PBW straightening, monomial maps, fraction-free elimination.

`walg.pbw` and `walg.linalg` call these as `backend.<name>`, looked up at
call time rather than bound by `from walg.backend import ...`, so that a
wrapper installed on this module (a profiler or a tracer) sees every call.

Data layout (shared with the rest of the package):

* monomial  -- tuple of (generator index, exponent) pairs, indices strictly
  increasing, exponents >= 1; the empty tuple is the unit monomial.
* terms     -- dict monomial -> exact rational (int or Fraction), no zero
  coefficients; a whole number may be either type, and equal values
  compare and hash equal.
* bracket   -- dict (i, j) -> tuple of (k, coefficient) pairs for i < j,
  giving [x_i, x_j]; missing keys mean the bracket vanishes.  A constant
  is an int when it is a whole number, so on an integral basis every
  straightening step is integer arithmetic.
* caches    -- plain dicts memoizing the straightening of generator times
  monomial, one per PBW basis.

`MonomialMap` extends a map given on generators to monomials, building
each image once, from its suffix, as an integer form (den, ints) from
`int_form`; `mul_terms` is one, and so are the left action on Q, the
change of PBW basis and the substitutions of walg.poisson.  The memoized
straightenings hold whatever the bracket gives: ints on an integral
basis, and exact Fractions where a constant is not integral.
`gen_times_word` and `word_map` straighten the same way in an algebra
given by generators whose commutators are polynomials in them, such as
H_ell on the ordered monomials in its slice generators; there the
commutators are given as integer forms, and the memo holds integer forms
too, so the rewriting runs on integers throughout.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

_ONE = 1


def backend_name():
    """Name of the kernel implementation, recorded with benchmark results."""
    return "python"


def _acc(out, mono, coeff):
    c = out.get(mono)
    if c is None:
        out[mono] = coeff
    else:
        c = c + coeff
        if c:
            out[mono] = c
        else:
            del out[mono]


def gen_times_mono(g, mono, bracket, cache):
    """Straighten x_g * mono into PBW normal form.

    Rewrites x_g x_i -> x_i x_g + [x_g, x_i] until ordered; terminates
    because each step lowers (word degree, generator index) lexically.
    """
    if not mono:
        return {((g, 1),): _ONE}
    hit = cache.get((g, mono))
    if hit is not None:
        return hit
    i, e = mono[0]
    if g < i:
        out = {((g, 1),) + mono: _ONE}
    elif g == i:
        out = {((g, e + 1),) + mono[1:]: _ONE}
    else:
        rest = ((i, e - 1),) + mono[1:] if e > 1 else mono[1:]
        out = {}
        for n1, c1 in gen_times_mono(g, rest, bracket, cache).items():
            for n2, c2 in gen_times_mono(i, n1, bracket, cache).items():
                _acc(out, n2, c1 * c2)
        for k, c in bracket.get((i, g), ()):
            # [x_g, x_i] = -[x_i, x_g]
            for n1, c1 in gen_times_mono(k, rest, bracket, cache).items():
                _acc(out, n1, -c * c1)
    cache[(g, mono)] = out
    return out


def _gen_times_terms(g, terms, bracket, cache):
    out = {}
    get = out.get
    for mono, c in terms.items():
        for n, c1 in gen_times_mono(g, mono, bracket, cache).items():
            v = get(n)
            if v is None:
                out[n] = c * c1
            else:
                v += c * c1
                if v:
                    out[n] = v
                else:
                    del out[n]
    return out


def int_form(v):
    """(den, ints) with v == ints / den: den > 0 is the least common
    denominator of the values of the dict v, ints their numerators over it."""
    den = 1
    for c in v.values():
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return 1, {k: c.numerator for k, c in v.items()}
    return den, {k: c.numerator * (den // c.denominator) for k, c in v.items()}


def combine(terms):
    """sum of c * v over (c, (den, ints)) pairs with v = ints / den and
    den > 0, as `int_form` gives them, returned as (scale, ints) where the
    sum is ints / scale; integer arithmetic only, and zero sums are kept.
    Each coefficient's numerator and denominator are read once."""
    scale = 1
    parts = []
    for c, (den, ints) in terms:
        d = c.denominator * den
        if d != 1:
            scale = scale * d // gcd(scale, d)
        parts.append((c.numerator, d, ints))
    if not parts:
        return scale, {}
    num, d, ints = parts[0]
    m = num * (scale // d)
    out = {j: m * v for j, v in ints.items()}
    get = out.get
    for num, d, ints in parts[1:]:
        m = num * (scale // d)
        for j, v in ints.items():
            out[j] = get(j, 0) + m * v
    return scale, out


def _divide(terms, den):
    """terms / den, each quotient an int when it is a whole number."""
    if den == 1:
        return terms
    return {k: c // den if not c % den else Fraction(c, den)
            for k, c in terms.items()}


class MonomialMap:
    """The linear map on term dicts with image(()) = base and
    image(x_g s) = step(g, image(s)) for a monomial x_g s, x_g its first
    factor.

    Images are integer forms (den, ints) with value ints / den, as
    `int_form` gives them, and `step` maps one such form to another.  Each
    monomial's image is built once, from its suffix (one power of its first
    factor removed), and kept in `memo` for the life of the map.  A call
    sums c * image(m) over one common scale and divides once, so memoized
    dicts are never handed out or changed.
    """

    __slots__ = ("step", "memo")

    def __init__(self, step, base):
        self.step = step
        self.memo = {(): int_form(base)}

    def image(self, m):
        """image(m) as an integer form (den, ints)."""
        img = self.memo.get(m)
        if img is None:
            g, e = m[0]
            img = self.memo[m] = self.step(
                g, self.image(((g, e - 1),) + m[1:] if e > 1 else m[1:]))
        return img

    def __call__(self, terms):
        """The image of the element with term dict `terms`."""
        return _value(combine([(c, self.image(m)) for m, c in terms.items()]))


def _value(combined):
    """The terms ints / scale of (scale, ints), zeros dropped."""
    scale, ints = combined
    return _divide({m: v for m, v in ints.items() if v}, scale)


def mul_terms(t1, t2, bracket, cache):
    """PBW product of two straightened term dicts.

    The map x_g s -> x_g (s t2) applied to t1: each generator straightens
    onto the product of its suffix with t2, so straightening proceeds
    left-to-right through the concatenated word, and a suffix shared by
    monomials of t1 is straightened once.  The tests cross-check it
    against right-to-left straightening (`tests/reference.py`).
    """
    def step(g, img):
        return img[0], _gen_times_terms(g, img[1], bracket, cache)

    return MonomialMap(step, t2)(t1)


def gen_times_word(g, word, relations, cache):
    """Straighten x_g * word in an algebra whose ordered words in its
    generators are a basis (a PBW algebra such as H_ell on the monomials
    in its slice generators), as an integer form (den, ints).

    relations[(b, a)], for b > a, is [x_b, x_a] as an integer form over
    the words, of lower filtration degree than x_b x_a.  Rewrites
    x_g x_i -> x_i x_g + [x_g, x_i] for g > i, the commutator times the
    rest by `word_map`; each step lowers the inversions or the filtration
    degree, so it ends.
    """
    if not word:
        return 1, {((g, 1),): _ONE}
    hit = cache.get((g, word))
    if hit is not None:
        return hit
    i, e = word[0]
    if g < i:
        out = 1, {((g, 1),) + word: _ONE}
    elif g == i:
        out = 1, {((g, e + 1),) + word[1:]: _ONE}
    else:
        rest = ((i, e - 1),) + word[1:] if e > 1 else word[1:]
        den, first = gen_times_word(g, rest, relations, cache)
        parts = []
        for n1, c1 in first.items():
            d2, t2 = gen_times_word(i, n1, relations, cache)
            parts.append((c1, (den * d2, t2)))
        dc, comm = relations.get((g, i), (1, {}))
        if comm:
            act = word_map({rest: _ONE}, relations, cache)
            for n1, c1 in comm.items():
                d2, t2 = act.image(n1)
                parts.append((c1, (dc * d2, t2)))
        out = _reduced(combine(parts))
    cache[(g, word)] = out
    return out


def _reduced(combined):
    """(scale, ints) from `combine` in lowest terms, zeros dropped."""
    scale, ints = combined
    ints = {m: v for m, v in ints.items() if v}
    d = scale
    for v in ints.values():
        d = gcd(d, v)
    return scale // d, {m: v // d for m, v in ints.items()}


def lowest_form(combined):
    """`int_form` of the value of (scale, sums) from `combine`, whose sums
    may be Fractions, minting no Fraction."""
    den, ints = int_form(combined[1])
    return _reduced((combined[0] * den, ints))


def word_map(base, relations, cache):
    """The map t -> t * base on term dicts over words, in the algebra of
    `gen_times_word`: a `MonomialMap` whose step straightens one generator
    onto each word of the image of the suffix."""
    def step(g, img):
        den, ints = img
        parts = []
        for w, c in ints.items():
            d, t = gen_times_word(g, w, relations, cache)
            parts.append((c, (den * d, t)))
        scale, out = combine(parts)
        return scale, {m: v for m, v in out.items() if v}

    return MonomialMap(step, base)


# ---------------------------------------------------------------------------
# Fraction-free elimination.
#
# Rows enter as dicts col -> Fraction.  The kernel clears denominators,
# eliminates with integer cross-multiplication and a per-row gcd
# normalization to keep growth polynomial, then rescales the canonical
# reduced echelon rows back to Fractions with unit pivots.  Rows wait in
# buckets keyed by their leading column: the smallest non-empty bucket
# holds every row that meets the next pivot column, so a pivot step
# touches only that bucket.  `lincomb` and `_normalize` are also the row
# step of the incremental echelon, `linalg.Echelon`.
# ---------------------------------------------------------------------------


def _int_row(row):
    """Scale a sparse Fraction row to a primitive integer row."""
    return _normalize({j: v for j, v in int_form(row)[1].items() if v})


def _normalize(row, *more):
    """Divide row, and the int dicts `more` with it, in place by the gcd of
    all their entries; returns row."""
    g = 0
    for d in (row,) + more:
        for v in d.values():
            g = gcd(g, v)
            if g == 1:
                return row
    if g > 1:
        for d in (row,) + more:
            for j in d:
                d[j] //= g
    return row


def lincomb(p, x, a, y):
    """p*x - a*y for sparse integer rows, zeros dropped."""
    new = {j: p * v for j, v in x.items()}
    for j, v in y.items():
        w = new.get(j, 0) - a * v
        if w:
            new[j] = w
        else:
            del new[j]
    return new


def _clear(row, prow, col):
    """Primitive integer row p*row - a*prow, with col cleared (p = prow[col],
    a = row[col])."""
    return _normalize(lincomb(prow[col], row, row[col], prow))


def rref_sparse(rows, ncols, reduce=True):
    """Canonical reduced row echelon form of sparse Fraction rows.

    Returns (pivot columns, rows) with unit pivots, pivot columns strictly
    increasing and cleared above as well as below; zero rows are dropped.
    The result depends only on the row space.  With reduce=False only the
    elimination below the pivots runs, which is all a rank needs: the rows
    are then primitive integer rows, not cleared above their pivots.
    """
    buckets = {}
    for r in rows:
        r = _int_row(r)
        if r:
            buckets.setdefault(min(r), []).append(r)
    heap = list(buckets)
    heapify(heap)
    pivots = []
    pivot_rows = []
    while heap:
        col = heappop(heap)
        bucket = buckets.pop(col)
        prow = min(bucket, key=len)
        for r in bucket:
            if r is prow:
                continue
            r = _clear(r, prow, col)
            if r:
                lead = min(r)
                if lead in buckets:
                    buckets[lead].append(r)
                else:
                    buckets[lead] = [r]
                    heappush(heap, lead)
        pivots.append(col)
        pivot_rows.append(prow)
    if not reduce:
        return pivots, pivot_rows
    # clear above pivots, bottom up, still over the integers: the rows below
    # are already reduced, so clearing one pivot column brings in no other,
    # and all of a row's pivot columns are cleared in one combination
    reduced = {}
    for i in range(len(pivot_rows) - 1, -1, -1):
        r = pivot_rows[i]
        cols = [j for j in r if j in reduced]
        if cols:
            scale = 1
            for col in cols:
                p = abs(reduced[col][col])
                scale = scale * p // gcd(scale, p)
            new = {j: scale * v for j, v in r.items()}
            for col in cols:
                prow = reduced[col]
                a = r[col] * (scale // prow[col])
                for j, v in prow.items():
                    w = new.get(j, 0) - a * v
                    if w:
                        new[j] = w
                    else:
                        del new[j]
            r = _normalize(new)
        reduced[pivots[i]] = pivot_rows[i] = r
    out = []
    for col, prow in zip(pivots, pivot_rows):
        p = prow[col]
        out.append({j: Fraction(v, p) for j, v in prow.items()})
    return pivots, out


def rref_dense(rows, ncols):
    """`rref_sparse` of rows given as length-`ncols` sequences."""
    return rref_sparse([{j: c for j, c in enumerate(r) if c} for r in rows], ncols)
