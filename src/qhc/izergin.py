"""Kernel functions f, g and the plain/left/right Izergin determinants.

All evaluators are generic over the scalar ring: arguments may be exact
rationals or (nested) truncated Laurent series, and the same code path serves
plain evaluation and series-based limit/residue evaluation.

The determinant is evaluated in a pole-minimal form.  Pulling the double
product of (q x_i - q^{-1} y_j) into the matrix rows gives entries

    M_ij = (q - q^{-1}) * prod_{j' != j} (q x_i - q^{-1} y_{j'}) / (x_i - y_j),

so only the genuinely singular denominators x_i - y_j and the Cauchy-like
prefactor survive.  This matters because the partition sums evaluate K at
points where some q x_i - q^{-1} y_j vanishes benignly.  A line (row or
column) of the matrix depends only on its own value and the whole opposite
set, the fixed set, so every K reads its lines from the kernel's table of
its fixed set, which builds each line once.  K has two routes:

- At a rational point K is one integer fraction.  Its lines are integer
  lines, built from an integer pair table with (q - q^{-1})^k and a scale
  per line taken out, and K is one Laplace step along the last column over
  the table's memoised minors of line subsets.  The determinant,
  (q - q^{-1})^k, the line scales and the Cauchy-like prefactor are
  multiplied into one integer numerator and one integer denominator.
- At a point that holds a series K is expanded along its series lines,
  then its integer lines, each column set's sum formed once.  Where every
  series is a y the matrix is taken in column form over the table of the
  xs; otherwise in row form over the table of the ys.  A line is a series
  line where it or the fixed set holds a series.  The prefactor's rational
  factors join the integer fraction, and its series factors divide once
  per level.

No K passes through `det`, the elimination over any exact ring that the
tests take as their reference.  Every entry that holds a series, and f at a
series, multiplies by the reciprocal 1/(u - v) of its pair instead of
dividing.  Floats are rejected: every value is exact.

A `Kernel` stands for one sampled point and is its index space: every value
the point meets gets a small integer, known by its identity alone, so no
value is hashed.  K_k, f-products (f is the product of one pair) and q^{+-2}
shifts are memoised under tuples of these integers, since the partition sums
of Z and of the scalar product ask for them many times over.  So are the
tables of lines, and the two pair quantities q u - q^{-1} v and u - v, each
pair once: the integer pair table holds them as integer fractions for every
pair of rationals, from which K and f-products at rationals are built, and
two series pair tables hold them as values where a K or an f holds a series,
each quantity only for the pairs that read it; a third holds 1/(u - v) for
those pairs, so each series u - v is inverted once per kernel, not once per
entry.  An f-product and a side product K^(l,r) = K prod(vs) multiply their
rational parts as integers and their series parts as series, and divide
once.  A value shifted and shifted back is the object it came from.
"""

from __future__ import annotations

from .exactnum import (
    _INF, PoleError, Rat, WindowError, _check_exact, _coeff_invert, _coeff_is_zero,
    _is_series, _level, _ratio, _times, eps, take_limit,
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

    Build one instance per sampled point: it memoises K, f-products and the
    pair quantities u - v and q u - q^-1 v at every argument it is asked
    for, for as long as it lives, and 1/(u - v) of each pair at which a
    series is met.  A reciprocal, and a series line of a table, is built at
    the window current when it was first asked for, so a kernel serves one
    `invert_window`.  ``values[i]`` is the value of index ``i``; memo keys
    are the indices of the argument sets in argument order.  Every value is
    known by its identity; the kernel holds every object whose ``id`` it
    records, so an ``id`` names one object while the kernel lives.  Kernels
    compare and hash by q alone.
    """

    __slots__ = ("q", "qinv", "_gq", "_qn2", "_qm2", "_qnm", "values", "_nds", "_ids",
                 "_shifts", "_ips", "_sqs", "_sds", "_rds", "_fprods", "_ks", "_tables")

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
        self._fprods = {}     # (#us, indices of us + vs) -> f(us, vs)
        self._ks = {}         # indices of xs + ys -> K(xs|ys)
        self._tables = {}     # (fixed indices, columns) -> table of lines and minors, see `_table`

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

    def f(self, u, v):
        return self.fprod((u,), (v,))

    def g(self, u, v):
        _check_exact(u)
        _check_exact(v)
        return _div(self._gq, u - v)

    def fprod(self, us, vs):
        """f over all pairs of the two sets; empty product = 1.

        The pairs are read in order.  A pair of rationals multiplies A E
        and B C from the integer pair table into one integer numerator and
        denominator; its u - v is tested in turn, so a zero raises PoleError
        as that pair's f would.  A pair at which a series is met multiplies
        its f, (q u - q^-1 v) / (u - v) from the series pair tables, into one
        series product, which is scaled once by the integer fraction where
        that is not 1; that f is memoised as the one-pair product, which is
        what `f` asks for.
        """
        fprods = self._fprods
        key = (len(us), self.indices((*us, *vs)))
        out = fprods.get(key)
        if out is None:
            ius, ivs = key[1][:key[0]], key[1][key[0]:]
            nds, ips, ip = self._nds, self._ips, self._ip
            num = den = 1
            for i in ius:
                for j in ivs:
                    if nds[i] is None or nds[j] is None:
                        f = fprods.get((1, (i, j)))
                        if f is None:
                            f = fprods[1, (i, j)] = self._sq(i, j) * self._rd(i, j)
                        out = f if out is None else out * f
                        continue
                    a, b, c, e = ips.get((i, j)) or ip(i, j)
                    if not c:
                        raise PoleError("vanishing denominator")
                    num *= a * e
                    den *= b * c
            r = Rat(num, den)
            out = fprods[key] = r if out is None else out if r == 1 else out * r
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

    def _izergin(self, ixs, iys, columns):
        """K of the values of two index tuples, from the pair tables and a table of lines.

        At a rational point K is one integer fraction, one Laplace step over
        the minor table of ys, or of xs for ``columns`` (`_laplace`).  At a
        point that holds a series K is expanded along its series lines
        (`_expand`): in column form, over the table of xs, when every series
        is a y, and in row form, over the table of ys, otherwise.  A zero
        x_i - y_j or prefactor factor raises PoleError either way.
        """
        if not ixs:
            return Rat(1)
        nds = self._nds
        if all(nds[i] is not None for i in (*ixs, *iys)):
            return self._laplace(ixs, iys, columns)
        return self._expand(ixs, iys, all(nds[i] is not None for i in ixs))

    def _laplace(self, ixs, iys, columns):
        """K at a rational point, one Laplace step over the minor table of a fixed set.

        The lines are the xs (rows) over the fixed ys, or for ``columns`` the
        ys (columns, as in `_expand`) over the fixed xs.  The table
        (`_table`) holds each line's integer entries and scale from
        `_int_line`, the fixed set's prefactor factors times
        (q - q^-1)^k / (n m)^k, and the minors of line subsets, all built
        once.  K is the determinant times the line scales and the lines'
        prefactor factors: one ``Rat`` of one integer numerator and one
        integer denominator.  A zero x - y or prefactor factor raises
        PoleError, a factor of the lines after their determinant.
        """
        fixed, lines = (ixs, iys) if columns else (iys, ixs)
        rows, minors, num, den, _ = (self._tables.get((fixed, columns))
                                     or self._table(fixed, columns))
        for l in lines:
            line = rows.get(l)
            if line is None:
                line = rows[l] = self._int_line(l, fixed, columns)
            den *= line[1]
        d = _last_column(rows, minors, lines)
        num, den = self._gaps(lines, columns, num, den, None)
        return Rat(d * num, den)

    def _table(self, fixed, columns):
        """The table of a fixed set in one orientation: lines, minors and a prefactor part.

        The lines and the minors of line subsets start empty and fill as K
        reads them: a line of rationals over rationals is an integer line
        (`_int_line`), and a line where it or the fixed set holds a series
        is a series line (`_series_line`) of scale 1.  The fixed set's
        factors of K's prefactor (`_gaps`) are an integer numerator and
        denominator, which start at (q - q^-1)^k / (n m)^k, and a product
        of the series factors per level; a zero rational factor raises
        PoleError and stores no table.
        """
        k, factors = len(fixed), {}
        num, den = self._gaps(fixed, not columns, (self._qn2 - self._qm2) ** k, self._qnm ** k,
                              factors)
        table = self._tables[fixed, columns] = ({}, {}, num, den, factors)
        return table

    def _gaps(self, iws, rising, num, den, factors):
        """num/den over prod_{a<b} (w_a - w_b), or (w_b - w_a) for ``rising``.

        The factors of K's prefactor from one set.  A factor of two
        rationals is C/E from the integer pair table, so num gains E and den
        gains C, and a zero raises PoleError.  A factor that holds a series
        multiplies into the product of its level in ``factors``.
        """
        nds, ips, ip = self._nds, self._ips, self._ip
        for a in range(len(iws)):
            for b in range(a + 1, len(iws)):
                i, j = (iws[b], iws[a]) if rising else (iws[a], iws[b])
                if nds[i] is None or nds[j] is None:
                    f = self._sd(i, j)
                    factors[f.level] = factors[f.level] * f if f.level in factors else f
                    continue
                c, e = (ips.get((i, j)) or ip(i, j))[2:]
                if not c:
                    raise PoleError("vanishing denominator")
                num *= e
                den *= c
        return num, den

    def _int_line(self, l, others, columns):
        """The integer line ``l`` of K's matrix from the integer pair table, and its scale.

        The line reads q x - q^-1 y = A_o / B_o and x - y = C_o / E_o for
        each ``o`` of ``others``, with x, y the values of l, o, or of o, l
        for ``columns``; times its scale prod_o B_o C_o and without the
        factor q - q^-1 it is N_o = B_o E_o prod_{o' != o} A_o' C_o',
        formed as B_o E_o times the product of the A C before o and the
        product of those after it.  A zero x - y raises PoleError.
        """
        ips, ip = self._ips, self._ip
        prods, row, pre, scale = [], [], 1, 1
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
        for t in range(len(others) - 1, 0, -1):
            suf *= prods[t]
            row[t - 1] *= suf         # times the A C after o
        return row, scale

    def _series_line(self, l, others, columns):
        """The entries of the series line ``l`` over ``others``, without the factor q - q^-1.

        Each entry is the product of a prefix and a suffix product of the
        line's q u - q^-1 v (u, v the values of l, o, or of o, l for
        ``columns``) times the reciprocal 1/(u - v) of its own pair; a line
        of one entry is that reciprocal.
        """
        sq, rd = self._sq, self._rd
        pairs = [(o, l) if columns else (l, o) for o in others]
        if len(pairs) == 1:
            return [rd(*pairs[0])]
        qds = [sq(i, j) for i, j in pairs]
        pre, suf = [None], [None]  # products of the first and of the last t
        for qd, qe in zip(qds[:-1], qds[:0:-1]):
            pre.append(qd if pre[-1] is None else pre[-1] * qd)
            suf.append(qe if suf[-1] is None else qe * suf[-1])
        return [(u if v is None else v if u is None else u * v) * rd(i, j)
                for u, v, (i, j) in zip(pre, suf[::-1], pairs)]

    def _expand(self, ixs, iys, columns):
        """K at a point that holds a series, expanded along its series lines.

        The matrix is taken in row form, over the table of ys, or for
        ``columns`` in column form, over the table of xs, which `_izergin`
        asks for when every series is a y: column j carries (q - q^-1)
        prod_{i' != i} (q x_i' - q^-1 y_j) / (x_i - y_j), which has the row
        form's determinant.  Every line is read from the table of the fixed
        set (`_table`, as `_laplace` keys it), so each line is built once
        per kernel: integer lines where line and fixed set are rational,
        series lines where either holds a series.  The determinant is
        expanded along the series lines, the highest level outermost, then
        along the integer lines (`_expansion`), so each entry of an outer
        line multiplies one sum of the inner lines, each column set's sum
        formed once.  (q - q^-1)^k, the integer lines' scales and the
        rational factors of the prefactor make one ``Rat``, and the sum
        divides once by the product of the prefactor's series factors of
        each level, those of the lines and of the fixed set together.

        A repeated value makes a factor of the prefactor an exact zero, so
        it raises PoleError where `det`'s elimination may raise WindowError
        (a zero pivot column known only within its window); a rational one
        raises before the expansion, and an integer line's PoleError before
        a series line's.
        """
        values = self.values
        lines, fixed = (iys, ixs) if columns else (ixs, iys)
        k = len(lines)
        table, _, num, den, factors = (self._tables.get((fixed, columns))
                                       or self._table(fixed, columns))
        factors = dict(factors)
        num, den = self._gaps(lines, columns, num, den, factors)
        # a line's level is that of its entries, 0 for an integer line
        top = max(map(_level, (values[o] for o in fixed)))
        levels = [max(top, _level(values[l])) for l in lines]
        perm = sorted(range(k), key=lambda p: -levels[p])  # series lines first, highest first
        n = k - levels.count(0)
        rows = [None] * k
        for t in (*range(n, k), *range(n)):  # an integer line's PoleError comes first
            l = lines[perm[t]]
            line = table.get(l)
            if line is None:
                line = table[l] = ((self._series_line(l, fixed, columns), 1) if t < n
                                   else self._int_line(l, fixed, columns))
            rows[t], scale = line
            den *= scale
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    sign = -sign
        value = _expansion(rows, {}, tuple(range(k)))
        for level in sorted(factors, reverse=True):
            value = _div(value, factors[level])
        return value * Rat(sign * num, den)

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
    ``int`` entries gives a ``Rat``.  No K of `Kernel` passes through here:
    the tests take this elimination as the reference K is compared with.
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

    ``rows`` maps a line to its integer entries and scale; a 1x1 or 2x2
    determinant is read off, and the minors a larger one expands over are
    memoised in ``minors`` under their lines.
    """
    j = len(lines) - 1
    if j == 0:
        return rows[lines[0]][0][0]
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


def _expansion(rows, sums, cols):
    """The minor of the last ``len(cols)`` rows over the columns ``cols``, along its first row.

    Each column set's sum is memoised in ``sums``, and the empty one is 1.
    A term whose minor is an exact zero is skipped, and a sum with no term
    is ``Rat(0)``.
    """
    out = sums.get(cols)
    if out is None:
        if not cols:
            out = 1
        else:
            row = rows[len(rows) - len(cols)]
            for t, c in enumerate(cols):
                sub = _expansion(rows, sums, cols[:t] + cols[t + 1:])
                if not _coeff_is_zero(sub):
                    term = row[c] * (-sub if t % 2 else sub)
                    out = term if out is None else out + term
            if out is None:
                out = Rat(0)
        sums[cols] = out
    return out


def izergin(kern, xs, ys, *, columns=False):
    """K_k(xs|ys); K_0 = 1.  ``columns`` changes no value (see `Kernel.k`)."""
    if len(xs) != len(ys):
        raise ValueError(f"cardinality mismatch: {len(xs)} vs {len(ys)}")
    return kern.k(xs, ys, columns)


def izergin_side(kern, side, xs, ys):
    """K^(l) = K prod(xs) or K^(r) = K prod(ys), selected by side.

    The numerators of K and of the side values multiply into one numerator
    and their denominators into one integer, divided once, so a rational
    point gives one integer fraction.
    """
    kern.usign(side)
    k = izergin(kern, xs, ys)
    return _ratio(*_times(k.numerator, k.denominator, xs if side == "l" else ys))


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
