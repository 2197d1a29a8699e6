"""Hot kernels: PBW straightening and fraction-free elimination.

`walg.pbw` and `walg.linalg` call these as `backend.<name>`, looked up at
call time rather than bound by `from walg.backend import ...`, so that a
wrapper installed on this module (a profiler or a tracer) sees every call.

Data layout (shared with the rest of the package):

* monomial  -- tuple of (generator index, exponent) pairs, indices strictly
  increasing, exponents >= 1; the empty tuple is the unit monomial.
* terms     -- dict monomial -> Fraction, no zero coefficients.
* bracket   -- dict (i, j) -> tuple of (k, Fraction) pairs for i < j,
  giving [x_i, x_j]; missing keys mean the bracket vanishes.
* caches    -- plain dicts, or None to disable memoization; results are
  identical either way.
"""

from fractions import Fraction
from math import gcd

_ONE = Fraction(1)


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
    if cache is not None:
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
    if cache is not None:
        cache[(g, mono)] = out
    return out


def mono_times_gen(mono, g, bracket, cache):
    """Straighten mono * x_g (right multiplication by a generator)."""
    if not mono:
        return {((g, 1),): _ONE}
    if cache is not None:
        hit = cache.get((mono, g))
        if hit is not None:
            return hit
    j, e = mono[-1]
    if g > j:
        out = {mono + ((g, 1),): _ONE}
    elif g == j:
        out = {mono[:-1] + ((g, e + 1),): _ONE}
    else:
        head = mono[:-1] + ((j, e - 1),) if e > 1 else mono[:-1]
        out = {}
        for n1, c1 in mono_times_gen(head, g, bracket, cache).items():
            for n2, c2 in mono_times_gen(n1, j, bracket, cache).items():
                _acc(out, n2, c1 * c2)
        for k, c in bracket.get((g, j), ()):
            # [x_j, x_g] = -[x_g, x_j]
            for n1, c1 in mono_times_gen(head, k, bracket, cache).items():
                _acc(out, n1, -c * c1)
    if cache is not None:
        cache[(mono, g)] = out
    return out


def _gen_times_terms(g, terms, bracket, cache):
    out = {}
    for mono, c in terms.items():
        for n, c1 in gen_times_mono(g, mono, bracket, cache).items():
            _acc(out, n, c * c1)
    return out


def _terms_times_gen(terms, g, bracket, cache):
    out = {}
    for mono, c in terms.items():
        for n, c1 in mono_times_gen(mono, g, bracket, cache).items():
            _acc(out, n, c * c1)
    return out


def mul_terms(t1, t2, bracket, cache):
    """PBW product of two straightened term dicts.

    Folds the factors of each left monomial onto t2 from the right, so
    straightening proceeds left-to-right through the concatenated word.
    """
    out = {}
    for mono, c in t1.items():
        if not mono:
            for n, c2 in t2.items():
                _acc(out, n, c * c2)
            continue
        acc = t2
        for idx, exp in reversed(mono):
            for _ in range(exp):
                acc = _gen_times_terms(idx, acc, bracket, cache)
        for n, c2 in acc.items():
            _acc(out, n, c * c2)
    return out


def mul_terms_rl(t1, t2, bracket, cache):
    """PBW product reducing right-to-left; cross-check for `mul_terms`."""
    out = {}
    for mono, c in t2.items():
        if not mono:
            for n, c1 in t1.items():
                _acc(out, n, c * c1)
            continue
        acc = t1
        for idx, exp in mono:
            for _ in range(exp):
                acc = _terms_times_gen(acc, idx, bracket, cache)
        for n, c1 in acc.items():
            _acc(out, n, c * c1)
    return out


# ---------------------------------------------------------------------------
# Fraction-free elimination.
#
# Rows enter as dicts col -> Fraction (sparse) or lists (dense).  The core
# clears denominators, eliminates with integer cross-multiplication and a
# per-row gcd normalization to keep growth polynomial, then rescales the
# canonical reduced echelon rows back to Fractions with unit pivots.
# ---------------------------------------------------------------------------


def _int_row(row):
    """Scale a sparse Fraction row to a primitive integer row."""
    lcm = 1
    for c in row.values():
        d = c.denominator
        lcm = lcm * d // gcd(lcm, d)
    out = {}
    g = 0
    for j, c in row.items():
        v = c.numerator * (lcm // c.denominator)
        if v:
            out[j] = v
            g = gcd(g, v)
    if g > 1:
        for j in out:
            out[j] //= g
    return out


def _normalize(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def rref_sparse(rows, ncols):
    """Canonical reduced row echelon form of sparse Fraction rows.

    Returns (pivot columns, rows) with unit pivots, pivot columns strictly
    increasing and cleared above as well as below; zero rows are dropped.
    The result depends only on the row space.
    """
    work = [_int_row(r) for r in rows]
    work = [r for r in work if r]
    pivots = []
    pivot_rows = []
    while work:
        col = min(min(r) for r in work)
        best = None
        for idx, r in enumerate(work):
            if col in r and (best is None or len(r) < len(work[best])):
                best = idx
        prow = work.pop(best)
        p = prow[col]
        nxt = []
        for r in work:
            a = r.get(col)
            if a is None:
                nxt.append(r)
                continue
            new = {}
            for j, v in r.items():
                w = p * v - a * prow.get(j, 0)
                if w:
                    new[j] = w
            for j, v in prow.items():
                if j not in r:
                    w = -a * v
                    if w:
                        new[j] = w
            if new:
                nxt.append(_normalize(new))
        work = nxt
        pivots.append(col)
        pivot_rows.append(prow)
    # clear above pivots, still over the integers
    for i in range(len(pivot_rows) - 1, -1, -1):
        col = pivots[i]
        prow = pivot_rows[i]
        p = prow[col]
        for i2 in range(i):
            r = pivot_rows[i2]
            a = r.get(col)
            if a is None:
                continue
            new = {}
            for j, v in r.items():
                w = p * v - a * prow.get(j, 0)
                if w:
                    new[j] = w
            for j, v in prow.items():
                if j not in r:
                    w = -a * v
                    if w:
                        new[j] = w
            pivot_rows[i2] = _normalize(new)
    out = []
    for i, prow in enumerate(pivot_rows):
        p = prow[pivots[i]]
        out.append({j: Fraction(v, p) for j, v in prow.items()})
    return pivots, out


def rref_dense(rows, ncols):
    """Dense variant of `rref_sparse` for small matrices; same contract.

    Takes rows as length-`ncols` sequences, keeps full integer rows and
    eliminates column by column; faster than dict juggling when nearly
    every entry is populated.
    """
    work = []
    for r in rows:
        lcm = 1
        for c in r:
            if c:
                d = c.denominator
                lcm = lcm * d // gcd(lcm, d)
        ints = [c.numerator * (lcm // c.denominator) for c in r]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        if g:
            work.append(ints)
    pivots = []
    pivot_rows = []
    for col in range(ncols):
        best = None
        for idx, r in enumerate(work):
            if r[col]:
                best = idx
                break
        if best is None:
            continue
        prow = work.pop(best)
        p = prow[col]
        nxt = []
        for r in work:
            a = r[col]
            if a:
                r = [p * v - a * w for v, w in zip(r, prow)]
                g = 0
                for v in r:
                    g = gcd(g, v)
                if g > 1:
                    r = [v // g for v in r]
                if not g:
                    continue
            nxt.append(r)
        work = nxt
        pivots.append(col)
        pivot_rows.append(prow)
        if not work:
            break
    for i in range(len(pivot_rows) - 1, -1, -1):
        col = pivots[i]
        prow = pivot_rows[i]
        p = prow[col]
        for i2 in range(i):
            r = pivot_rows[i2]
            a = r[col]
            if not a:
                continue
            r = [p * v - a * w for v, w in zip(r, prow)]
            g = 0
            for v in r:
                g = gcd(g, v)
            if g > 1:
                r = [v // g for v in r]
            pivot_rows[i2] = r
    out = []
    for i, prow in enumerate(pivot_rows):
        p = prow[pivots[i]]
        out.append({j: Fraction(v, p) for j, v in enumerate(prow) if v})
    return pivots, out
