"""Kernel functions f, g and the plain/left/right Izergin determinants.

All evaluators are generic over the scalar ring: arguments may be exact
rationals or (nested) truncated Laurent series, and the same code path serves
plain evaluation and series-based limit/residue evaluation.

The determinant is evaluated in a pole-minimal form.  Pulling the double
product of (q x_i - q^{-1} y_j) into the matrix rows gives entries

    M_ij = (q - q^{-1}) * prod_{j' != j} (q x_i - q^{-1} y_{j'}) / (x_i - y_j),

so only the genuinely singular denominators x_i - y_j and the Cauchy-like
prefactor survive.  This matters because the partition sums evaluate K at
points where some q x_i - q^{-1} y_j vanishes benignly.  At a rational point
K is one integer fraction: the matrix is built in integers from an integer
pair table, with (q - q^{-1})^k and a scale per line taken out, and the
determinant, (q - q^{-1})^k, the line scales and the Cauchy-like prefactor
are multiplied into one integer numerator and one integer denominator, so
each K costs one rational and none passes through `det`.  A line (row or
column) depends only on its own value and the whole opposite set, so the K
of three or more lines that share a fixed set, named by the caller, share a
table of lines and minors, and each is one Laplace step along its last
column.  At a point whose series values are all xs, or all ys, only their
lines of the matrix (rows for xs, columns for ys) are series; the other
lines are integer lines as at a rational point, and the determinant is
expanded along the series lines over integer minors.  A point with series on
both sides keeps rational or series rows and prefactor, and `det` eliminates
them.  Every entry that holds a series, and f at a series, multiplies by the
reciprocal 1/(u - v) of its pair instead of dividing.  Floats are rejected:
every value is exact.

A `Kernel` stands for one sampled point and is its index space: every value
the point meets gets a small integer, known by its identity alone, so no
value is hashed.  K_k, f, f-products, side products and q^{+-2} shifts are
memoised under tuples of these integers, since the partition sums of Z and
of the scalar product ask for them many times over.  So are the minor tables,
and the two pair quantities q u - q^{-1} v and u - v, each pair once: the
integer pair table holds them as integer fractions for every pair of
rationals, from which K, f and f-products at rationals are built, and two
series pair tables hold them as values where a K or an f holds a series,
each quantity only for the pairs that read it; a third holds 1/(u - v) for
those pairs, so each series u - v is inverted once per kernel, not once per
entry.  An f-product and a side product K^(l,r) = K prod(vs) multiply their
rational parts as integers and their series parts as series, and divide
once.  A value shifted and shifted back is the object it came from.
"""

from __future__ import annotations

from .exactnum import (
    _INF, PoleError, Rat, WindowError, _check_exact, _coeff_invert, _coeff_is_zero,
    _is_series, eps, take_limit,
)
from .partitions import enumerate_partitions

__all__ = [
    "Kernel",
    "det",
    "izergin",
    "izergin_side",
    "lemma_partition_sum",
    "mult_pole_limit",
    "nested_primes",
]


def _val(x):
    """Pivoting key: valuation for series, 0 for nonzero scalars."""
    if _is_series(x):
        return _INF if x.is_zero() else x.valuation
    return _INF if x == 0 else 0


def _div(a, b):
    if not _is_series(b) and b == 0:
        raise PoleError("vanishing denominator")
    return a / b


class Kernel:
    """The deformation parameter q, the kernel functions and the index space of one point.

    Build one instance per sampled point: it memoises K, f and the pair
    quantities u - v and q u - q^-1 v at every argument it is asked for, for
    as long as it lives, and 1/(u - v) of each pair at which a series is met.
    A reciprocal is a series inverted at the window current when it was
    first asked for, so a kernel serves one `invert_window`.  ``values[i]``
    is the value of index ``i``; memo keys are the indices of the argument
    sets in argument order.  Every value is known by its identity; the kernel
    holds every object whose ``id`` it records, so an ``id`` names one object
    while the kernel lives.  Kernels compare and hash by q alone.
    """

    __slots__ = ("q", "qinv", "_gq", "_qn2", "_qm2", "_qnm", "values", "_nds", "_ids",
                 "_shifts", "_ips", "_sqs", "_sds", "_rds", "_fs", "_fprods", "_ks", "_ksides",
                 "_tables")

    def __init__(self, q):
        _check_exact(q)
        q = Rat(q)
        if q == 0 or q == 1 or q == -1:
            raise ValueError("q must not be 0, 1, or -1")
        self.q, self.qinv = q, Rat(1) / q
        self._gq = q - self.qinv
        n, m = q.numerator, q.denominator
        self._qn2, self._qm2, self._qnm = n * n, m * m, n * m
        self.values = []
        self._nds = []        # (numerator, denominator) of values[i], or None
        self._ids = {}        # id(object) -> index
        self._shifts = {}     # (index, k) -> index of the value times q^k
        self._ips = {}        # (i, j) -> (A, B, C, E): q u - q^-1 v = A/B, u - v = C/E
        self._sqs = {}        # (i, j) -> q u - q^-1 v, where a series is met
        self._sds = {}        # (i, j) -> u - v, where a series is met
        self._rds = {}        # (i, j) -> 1/(u - v), where a series is met
        self._fs = {}         # (i, j) -> f(values[i], values[j])
        self._fprods = {}     # (#us, indices of us + vs) -> f(us, vs)
        self._ks = {}         # indices of xs + ys -> K(xs|ys)
        self._ksides = {}     # (id(K), side) -> K^(side)
        self._tables = {}     # (fixed indices, columns) -> minor table, see `_laplace`

    def __eq__(self, other):
        return self.q == other.q if isinstance(other, Kernel) else NotImplemented

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"Kernel(q={self.q!r})"

    def index(self, x):
        """The index of ``x``, by its identity.

        A float or complex value raises TypeError: it would make every value
        built from it inexact.
        """
        i = self._ids.get(id(x))
        if i is None:
            _check_exact(x)
            i = self._ids[id(x)] = len(self.values)
            self.values.append(x)
            self._nds.append((x.numerator, x.denominator)
                             if isinstance(x, (Rat, int)) else None)
        return i

    def indices(self, xs):
        """The indices of a sequence of values, in its order."""
        ids = self._ids
        try:
            return tuple([ids[id(x)] for x in xs])
        except KeyError:
            return tuple([self.index(x) for x in xs])

    def rational(self, xs):
        """Whether every value of ``xs`` is rational, that is none is a series."""
        nds = self._nds
        return all(nds[i] is not None for i in self.indices(xs))

    def shift(self, xs, k):
        """The values of ``xs`` times q^k, one object per value; shifting back gives ``xs``."""
        out = []
        for i in self.indices(xs):
            j = self._shifts.get((i, k))
            if j is None:
                j = self._shifts[i, k] = self.index(self.values[i] * self.q ** k)
                self._shifts[j, -k] = i  # the product is a fresh object, so j is fresh
            out.append(self.values[j])
        return tuple(out)

    def _ip(self, i, j):
        """(A, B, C, E) with q u - q^-1 v = A/B and u - v = C/E, in integers.

        With u = a/b, v = c/d and q = n/m: A = n^2 a d - m^2 b c, B = n m b d,
        C = a d - b c and E = b d.  The fractions are not reduced.
        """
        a, b = self._nds[i]
        c, d = self._nds[j]
        ad, bc, bd = a * d, b * c, b * d
        out = self._ips[i, j] = (self._qn2 * ad - self._qm2 * bc, self._qnm * bd, ad - bc, bd)
        return out

    def _sq(self, i, j):
        """q u - q^-1 v of the values, for a pair at which a series is met."""
        out = self._sqs.get((i, j))
        if out is None:
            out = self._sqs[i, j] = self.q * self.values[i] - self.qinv * self.values[j]
        return out

    def _sd(self, i, j):
        """u - v of the values, for a pair at which a series is met."""
        out = self._sds.get((i, j))
        if out is None:
            out = self._sds[i, j] = self.values[i] - self.values[j]
        return out

    def _rd(self, i, j):
        """1/(u - v) of the values, for a pair at which a series is met, inverted once.

        An exact zero raises PoleError and a truncated one WindowError, at
        each use, as dividing by it would.
        """
        out = self._rds.get((i, j))
        if out is None:
            d = self._sd(i, j)
            out = self._rds[i, j] = d.invert() if _is_series(d) else _div(Rat(1), d)
        return out

    def _f(self, i, j):
        """f of two indexed values; at rationals A E / (B C) from the integer pair table."""
        out = self._fs.get((i, j))
        if out is None:
            if self._nds[i] is not None and self._nds[j] is not None:
                a, b, c, e = self._ips.get((i, j)) or self._ip(i, j)
                if not c:
                    raise PoleError("vanishing denominator")
                out = Rat(a * e, b * c)
            else:
                out = self._sq(i, j) * self._rd(i, j)
            self._fs[i, j] = out
        return out

    def f(self, u, v):
        return self._f(self.index(u), self.index(v))

    def g(self, u, v):
        _check_exact(u)
        _check_exact(v)
        return _div(self._gq, u - v)

    def fprod(self, us, vs):
        """f over all pairs of the two sets; empty product = 1.

        The pairs are read in order.  A pair of rationals multiplies A E
        and B C from the integer pair table into one integer numerator and
        denominator; its u - v is tested in turn, so a zero raises PoleError
        as that pair's f would, and its f is not memoised.  A pair at which
        a series is met multiplies its f into one series product, which is
        scaled once by the integer fraction where that is not 1.
        """
        key = (len(us), self.indices((*us, *vs)))
        out = self._fprods.get(key)
        if out is None:
            ius, ivs = key[1][:key[0]], key[1][key[0]:]
            nds, ips, ip = self._nds, self._ips, self._ip
            num = den = 1
            for i in ius:
                for j in ivs:
                    if nds[i] is None or nds[j] is None:
                        f = self._f(i, j)
                        out = f if out is None else out * f
                        continue
                    a, b, c, e = ips.get((i, j)) or ip(i, j)
                    if not c:
                        raise PoleError("vanishing denominator")
                    num *= a * e
                    den *= b * c
            r = Rat(num, den)
            out = self._fprods[key] = r if out is None else out if r == 1 else out * r
        return out

    def k(self, xs, ys, columns=False):
        """K_k(xs|ys) for two sets of equal size; K_0 = 1.

        ``columns`` names xs, not ys, as the set shared by the K asked for:
        the minor table `_laplace` reads.  It changes no value.
        """
        key = self.indices((*xs, *ys))
        out = self._ks.get(key)
        if out is None:
            n = len(xs)
            out = self._ks[key] = self._izergin(key[:n], key[n:], columns)
        return out

    def _izergin(self, ixs, iys, columns=False):
        """K of the values of two index tuples, from the pair tables.

        At a rational point K is one integer fraction.  For k > 2 it is one
        Laplace step over the minor table of ys, or of xs for ``columns``
        (`_laplace`).  For k <= 2 `_int_rows` builds the integer rows and
        `_bareiss` reads their determinant off; K is it times
        (q - q^-1)^k = (n^2 - m^2)^k / (n m)^k (q = n/m), over the row
        scales and the prefactor prod_{a<b} (x_a - x_b)(y_b - y_a), whose
        factors are C/E from the integer pair table: one ``Rat`` of one integer
        numerator and one integer denominator.  For k > 1, a point whose
        series values are all xs, or all ys, is expanded along their lines
        (`_expand`).  Any other point that holds a series reads the pair
        quantities from the series pair tables, builds rational or series
        rows for `det` and divides by the prefactor as a product of its
        u - v.  A zero x_i - y_j or prefactor factor raises PoleError every
        way.
        """
        k = len(ixs)
        if k == 0:
            return Rat(1)
        nds = self._nds
        if all(nds[i] is not None for i in (*ixs, *iys)):
            if k > 2:
                return self._laplace(ixs, iys, columns)
            rows, den = self._int_rows(ixs, iys)
            num = _bareiss(rows) * (self._qn2 - self._qm2) ** k
            den *= self._qnm ** k
            if k == 2:
                num, den = self._over_gaps(iys, True, *self._over_gaps(ixs, False, num, den))
            return Rat(num, den)
        if k > 1:
            if all(nds[j] is not None for j in iys):
                return self._expand(ixs, iys, False)
            if all(nds[i] is not None for i in ixs):
                return self._expand(ixs, iys, True)
        sq, sd, rd = self._sq, self._sd, self._rd
        rows = []
        for i in ixs:
            qds = [sq(i, j) for j in iys] if k > 1 else ()  # a 1x1 row reads no q u - q^-1 v
            row = []
            for c, j in enumerate(iys):
                num = self._gq
                for cp, qd in enumerate(qds):
                    if cp != c:
                        num = num * qd
                row.append(num * rd(i, j))
            rows.append(row)
        value = det(rows)
        if k == 1:  # the prefactor is the empty product
            return value
        denom = Rat(1)
        for a in range(k):
            for b in range(a + 1, k):
                denom = denom * sd(ixs[a], ixs[b]) * sd(iys[b], iys[a])
        return _div(value, denom)

    def _laplace(self, ixs, iys, columns):
        """K at a rational point of k > 2, one Laplace step over the minor table of a fixed set.

        The lines are the xs (rows) over the fixed ys, or for ``columns`` the
        ys (columns, as in `_expand`) over the fixed xs.  A table holds each
        line's integer entries and scale from `_int_rows`, the fixed set's
        prefactor factors times (q - q^-1)^k / (n m)^k, and the minors of
        line subsets, all built once.  A zero x - y or prefactor factor
        raises PoleError, as elimination does.
        """
        fixed, lines = (ixs, iys) if columns else (iys, ixs)
        table = self._tables.get((fixed, columns))
        if table is None:
            k = len(fixed)
            table = self._tables[fixed, columns] = ({}, {}, *self._over_gaps(
                fixed, not columns, (self._qn2 - self._qm2) ** k, self._qnm ** k))
        rows, minors, num, den = table
        for l in lines:
            line = rows.get(l)
            if line is None:
                (entries,), scale = self._int_rows((l,), fixed, columns)
                line = rows[l] = (entries, scale)
            den *= line[1]
        num, den = self._over_gaps(lines, columns, num, den)
        return Rat(_last_column(rows, minors, lines) * num, den)

    def _over_gaps(self, iws, rising, num, den):
        """num/den over prod_{a<b} (w_a - w_b), or (w_b - w_a) for ``rising``, of rationals.

        The factors of K's prefactor from one set: each is C/E from the
        integer pair table, so num gains E and den gains C.  A zero factor
        raises PoleError.
        """
        ips, ip = self._ips, self._ip
        for b in range(1, len(iws)):
            for a in range(b):
                key = (iws[b], iws[a]) if rising else (iws[a], iws[b])
                c, e = (ips.get(key) or ip(*key))[2:]
                if not c:
                    raise PoleError("vanishing denominator")
                num *= e
                den *= c
        return num, den

    def _int_rows(self, lines, others, columns=False):
        """Integer lines of K's matrix from the integer pair table, and their scales' product.

        Line ``l`` reads q x - q^-1 y = A_o / B_o and x - y = C_o / E_o for
        each ``o`` of ``others``, with x, y the values of l, o, or of o, l
        for ``columns``; times prod_o B_o C_o and without the factor
        q - q^-1 it is N_o = B_o E_o prod_{o' != o} A_o' C_o', formed as
        B_o E_o times the product of the A C before o and the product of
        those after it.  A zero x - y raises PoleError.
        """
        ips, ip = self._ips, self._ip
        rows, scale, n = [], 1, len(others)
        for l in lines:
            prods, row, pre = [], [], 1
            for o in others:
                key = (o, l) if columns else (l, o)
                a, b, c, e = ips.get(key) or ip(*key)
                if not c:
                    raise PoleError("vanishing denominator")
                ac = a * c
                prods.append(ac)          # A_o C_o
                row.append(b * e * pre)   # B_o E_o times the A C before o
                pre *= ac
                scale *= b * c            # B_o C_o
            suf = 1
            for t in range(n - 1, 0, -1):
                suf *= prods[t]
                row[t - 1] *= suf         # times the A C after o
            rows.append(row)
        return rows, scale

    def _expand(self, ixs, iys, columns):
        """K at a point whose series values are all xs, or all ys for ``columns``.

        The matrix is taken in row form for xs and in column form for ys:
        column j carries (q - q^-1) prod_{i' != i} (q x_i' - q^-1 y_j) /
        (x_i - y_j), which has the row form's determinant.  Only the lines
        of the series values are series: without the factor q - q^-1, each
        entry is the product of a prefix and a suffix product of the line's
        q u - q^-1 v over one u - v.  The other lines are integer lines
        from `_int_rows`.  The determinant is expanded along the series
        lines, the highest level outermost, so each entry of an outer line
        multiplies one sum of the inner lines; the complementary minors are
        integer determinants, each column set's once.  (q - q^-1)^k, the
        integer lines' scales and the rational factors of the prefactor
        make one ``Rat``, and the sum divides once by the product of the
        prefactor's series factors of each level.

        A repeated value makes a factor of the prefactor an exact zero, so
        it raises PoleError where elimination raised WindowError (a zero
        pivot column known only within its window); a rational one raises
        before the expansion.
        """
        nds, values, ips, ip = self._nds, self.values, self._ips, self._ip
        sq, sd, rd = self._sq, self._sd, self._rd
        lines, others = (iys, ixs) if columns else (ixs, iys)
        k = len(lines)
        num, den, factors = 1, 1, {}
        for a in range(k):
            for b in range(a + 1, k):
                for i, j in ((ixs[a], ixs[b]), (iys[b], iys[a])):
                    if nds[i] is None or nds[j] is None:
                        f = sd(i, j)
                        factors[f.level] = factors[f.level] * f if f.level in factors else f
                    else:
                        c, e = (ips.get((i, j)) or ip(i, j))[2:]
                        if not c:
                            raise PoleError("vanishing denominator")
                        num *= e
                        den *= c
        series = sorted((p for p in range(k) if nds[lines[p]] is None),
                        key=lambda p: -values[lines[p]].level)
        ints = [p for p in range(k) if nds[lines[p]] is not None]
        rows, scale = self._int_rows([lines[p] for p in ints], others, columns)
        n, perm = len(series), series + ints
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        entries = []
        for p in series:
            pairs = [(o, lines[p]) if columns else (lines[p], o) for o in others]
            qds = [sq(i, j) for i, j in pairs]
            pre, suf = [None], [None]  # products of the first and of the last t
            for qd, qe in zip(qds[:-1], qds[:0:-1]):
                pre.append(qd if pre[-1] is None else pre[-1] * qd)
                suf.append(qe if suf[-1] is None else qe * suf[-1])
            entries.append([(u if v is None else v if u is None else u * v) * rd(i, j)
                            for u, v, (i, j) in zip(pre, suf[::-1], pairs)])
        sums = {}

        def expand(cols):
            # the minor of the lines from perm[k - len(cols)] on, over the columns cols
            out = sums.get(cols)
            if out is None:
                if len(cols) == k - n:
                    out = Rat(_bareiss([[row[c] for c in cols] for row in rows]) if cols else 1)
                else:
                    line = entries[k - len(cols)]
                    for t, c in enumerate(cols):
                        sub = expand(cols[:t] + cols[t + 1:])
                        if not _coeff_is_zero(sub):
                            term = line[c] * (-sub if t % 2 else sub)
                            out = term if out is None else out + term
                    if out is None:
                        out = Rat(0)
                sums[cols] = out
            return out

        value = expand(tuple(range(k)))
        for level in sorted(factors, reverse=True):
            value = _div(value, factors[level])
        num *= sign * (self._qn2 - self._qm2) ** k
        return value * Rat(num, den * scale * self._qnm ** k)

    def k_side(self, k, side, vs):
        """K^(side) = k prod(vs), for ``k`` a K from `k` and ``vs`` its side's set.

        The numerators of k and of the values multiply into one numerator,
        their denominators into one integer, and `_ratio` divides them once,
        so a rational point gives one integer fraction.  Each K that `k`
        memoises is its own object and is held here, so ``id(k)`` names the
        pair of sets it was computed for.
        """
        key = (id(k), side)
        out = self._ksides.get(key)
        if out is None:
            out = self._ksides[key] = _ratio(*_times(k.numerator, k.denominator, vs))
        return out

    def mq(self, e):
        """(-q)^e for integer e of either sign."""
        return (-self.q) ** e

    def usign(self, side):
        """The sign taken by this side in (+-)/(-+) exponents: l is upper."""
        if side not in ("l", "r"):
            raise ValueError(f"side must be 'l' or 'r', got {side!r}")
        return 1 if side == "l" else -1

    def other(self, side):
        return "r" if side == "l" else "l"

    def inverted(self):
        return Kernel(self.qinv)


def _times(num, den, values):
    """num / den times the product of ``values``, as a numerator and an integer denominator.

    A numerator is an ``int``, or a series once a series is met (a series is
    its own numerator over 1).
    """
    for v in values:
        num *= v.numerator
        den *= v.denominator
    return num, den


def _ratio(num, den):
    """num / den for an ``int`` or series ``num`` and an ``int`` ``den``.

    Two ints make one ``Rat``; a series is scaled by 1/den where den is not 1.
    """
    if type(num) is int:
        return Rat(num, den)
    return num if den == 1 else num / Rat(den)


def det(rows):
    """Determinant of a square matrix, generic over the scalar ring.

    The elimination pivots on the entry of minimal valuation (plain nonzero
    scalars count as valuation 0), which keeps series windows as wide as
    possible.  Only exact zeros are skipped: a pivot column of zeros known
    only within their windows raises WindowError.  A float or complex entry
    raises TypeError.  Each pivot, rational or series, is inverted once, at
    the first row it eliminates, and ``a / b`` is ``a * b.invert()`` for a
    series and ``a * (1 / b)`` for a rational, so the factors are those of
    dividing.  The product of the pivots starts at ``Rat(1)``, so a matrix of
    ``int`` entries gives a ``Rat``; the integer lines of `Kernel` never
    pass through here.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"det needs a square matrix, got {n} rows of lengths "
                         f"{[len(r) for r in rows]}")
    if n == 0:
        return Rat(1)
    for r in rows:
        for x in r:
            _check_exact(x)
    m = [list(r) for r in rows]
    sign = 1
    result = Rat(1)
    for k in range(n):
        piv = min(range(k, n), key=lambda i: _val(m[i][k]))
        if _val(m[piv][k]) == _INF:
            if all(_coeff_is_zero(m[i][k]) for i in range(k, n)):
                return Rat(0)
            raise WindowError("pivot column is zero only within its truncation window")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        result = result * pivot
        pinv = None
        for i in range(k + 1, n):
            if _coeff_is_zero(m[i][k]):
                continue
            if pinv is None:
                pinv = _coeff_invert(pivot)
            factor = m[i][k] * pinv
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
    return result if sign == 1 else -result


def _last_column(rows, minors, lines):
    """The determinant of table ``lines`` over their leading columns, along the last one.

    ``rows`` maps a line to its integer entries and scale; the minors it
    expands over are memoised in ``minors`` under their lines.
    """
    j = len(lines) - 1
    if j == 1:
        (a, b), (c, d) = rows[lines[0]][0][:2], rows[lines[1]][0][:2]
        return a * d - b * c
    out = 0
    for t, l in enumerate(lines):
        e = rows[l][0][j]
        if e:
            sub = lines[:t] + lines[t + 1:]
            m = minors.get(sub)
            if m is None:
                m = minors[sub] = _last_column(rows, minors, sub)
            out = out + e * m if (j - t) % 2 == 0 else out - e * m
    return out


def _bareiss(m):
    """The determinant of a nonempty square matrix of integers, as an ``int``.

    A 1x1 or 2x2 matrix is read off.  A larger one is eliminated in place,
    fraction-free (Bareiss): a zero pivot swaps in a lower row, and each step
    divides exactly by the previous pivot.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def izergin(kern, xs, ys, *, columns=False):
    """K_k(xs|ys); K_0 = 1.  ``columns`` changes no value (see `Kernel.k`)."""
    if len(xs) != len(ys):
        raise ValueError(f"cardinality mismatch: {len(xs)} vs {len(ys)}")
    return kern.k(xs, ys, columns)


def izergin_side(kern, side, xs, ys):
    """K^(l) = K prod(xs) or K^(r) = K prod(ys), selected by side."""
    kern.usign(side)
    k = izergin(kern, xs, ys)
    return kern.k_side(k, side, xs if side == "l" else ys)


def lemma_partition_sum(kern, side, gamma, alpha, beta):
    """Both sides of the three-set summation identity for K.

    LHS: sum over gamma => {gamma_I, gamma_II} of
    K^(l,r)_{m1}(gamma_I|alpha) K^(r,l)_{m2}(beta|gamma_II) f(gamma_II, gamma_I).
    Returns (lhs, rhs1, rhs2) where rhs1, rhs2 are the two equivalent closed
    forms; all three must be equal.
    """
    m1, m2 = len(alpha), len(beta)
    if len(gamma) != m1 + m2:
        raise ValueError("cardinality mismatch: #gamma must equal #alpha + #beta")
    u = kern.usign(side)
    opp = kern.other(side)
    lhs = Rat(0)
    for g1, g2 in enumerate_partitions(gamma, m1):
        lhs = lhs + (
            izergin_side(kern, side, g1, alpha)
            * izergin_side(kern, opp, beta, g2)
            * kern.fprod(g2, g1)
        )
    rhs1 = (
        kern.mq(-u * m1)
        * kern.fprod(gamma, alpha)
        * izergin_side(kern, opp, kern.shift(alpha, -2) + tuple(beta), gamma)
    )
    rhs2 = (
        kern.mq(u * m2)
        * kern.fprod(beta, gamma)
        * izergin_side(kern, side, gamma, tuple(alpha) + kern.shift(beta, 2))
    )
    return lhs, rhs1, rhs2


def nested_primes(zs):
    """One infinitesimal per collapsing variable, innermost first."""
    return tuple(z + eps(level=j + 1) for j, z in enumerate(zs))


def mult_pole_limit(kern, side, xs, ys, zs):
    """Both sides of the multiple-pole limit for K.

    LHS: lim_{z'->z} f^{-1}(z, z') K^(l,r)_{n+m}({x,z}|{y,z'}) evaluated by
    sequential single-variable series limits (one nested infinitesimal per
    z_j); RHS: f(x,z) f(z,y) K^(l,r)_n(x|y).  Returns (lhs, rhs).
    """
    zprime = nested_primes(zs)
    expr = _div(
        izergin_side(kern, side, tuple(xs) + tuple(zs), tuple(ys) + zprime),
        kern.fprod(zs, zprime),
    )
    lhs = take_limit(expr)
    rhs = (
        kern.fprod(xs, zs)
        * kern.fprod(zs, ys)
        * izergin_side(kern, side, xs, ys)
    )
    return lhs, rhs
