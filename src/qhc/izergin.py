"""Kernel functions f, g and the plain/left/right Izergin determinants.

All evaluators are generic over the scalar ring: arguments may be exact
rationals or (nested) truncated Laurent series, and the same code path serves
plain evaluation and series-based limit/residue evaluation.

The determinant is evaluated in a pole-minimal form.  Pulling the double
product of (q x_i - q^{-1} y_j) into the matrix rows gives entries

    M_ij = (q - q^{-1}) * prod_{j' != j} (q x_i - q^{-1} y_{j'}) / (x_i - y_j),

so only the genuinely singular denominators x_i - y_j and the Cauchy-like
prefactor survive.  This matters because the partition sums evaluate K at
points where some q x_i - q^{-1} y_j vanishes benignly.

A `Kernel` stands for one sampled point and is its index space: every value
the point meets gets a small integer, a rational by its value and a series by
its identity (series are unhashable).  K_k, f, f-products, side products and
q^{+-2} shifts are memoised under tuples of these integers, since the
partition sums of Z and of the scalar product ask for them many times over;
no rational is hashed on a repeat lookup.  Rationals and series share this
one path.
"""

from __future__ import annotations

from .exactnum import (
    _INF, PoleError, Rat, WindowError, _coeff_is_zero, _is_series, eps, take_limit,
)
from .partitions import enumerate_partitions

__all__ = [
    "Kernel",
    "det",
    "izergin",
    "izergin_side",
    "lemma_partition_sum",
    "mult_pole_limit",
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

    Build one instance per sampled point: it memoises K and f at every
    argument it is asked for, for as long as it lives.  ``values[i]`` is the
    value of index ``i``; memo keys are the indices of the argument sets in
    argument order.  The kernel holds every object whose ``id`` it records,
    so an ``id`` names one object while the kernel lives.  Kernels compare
    and hash by q alone.
    """

    __slots__ = ("q", "qinv", "values", "_ids", "_aliases", "_rationals",
                 "_shifts", "_fs", "_fprods", "_ks", "_ksides")

    def __init__(self, q):
        q = Rat(q)
        if q == 0 or q == 1 or q == -1:
            raise ValueError("q must not be 0, 1, or -1")
        self.q, self.qinv = q, Rat(1) / q
        self.values = []
        self._ids = {}        # id(object) -> index
        self._aliases = []    # rationals equal to values[i] under another id
        self._rationals = {}  # rational value -> index
        self._shifts = {}     # (index, k) -> index of the value times q^k
        self._fs = {}         # (i, j) -> f(values[i], values[j])
        self._fprods = {}     # (#us, indices of us + vs) -> f(us, vs)
        self._ks = {}         # indices of xs + ys -> K(xs|ys)
        self._ksides = {}     # (id(K), side) -> K^(side)

    def __eq__(self, other):
        return self.q == other.q if isinstance(other, Kernel) else NotImplemented

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"Kernel(q={self.q!r})"

    def index(self, x):
        """The index of ``x``: a rational by its value, a series by its identity."""
        i = self._ids.get(id(x))
        if i is None:
            if not _is_series(x):
                i = self._rationals.get(x)
            if i is None:
                i = len(self.values)
                self.values.append(x)
                if not _is_series(x):
                    self._rationals[x] = i
            else:
                self._aliases.append(x)
            self._ids[id(x)] = i
        return i

    def indices(self, xs):
        """The indices of a sequence of values, in its order."""
        ids = self._ids
        try:
            return tuple([ids[id(x)] for x in xs])
        except KeyError:
            return tuple([self.index(x) for x in xs])

    def shift(self, xs, k):
        """The values of ``xs`` times q^k, one object per value."""
        out = []
        for i in self.indices(xs):
            j = self._shifts.get((i, k))
            if j is None:
                j = self._shifts[i, k] = self.index(self.values[i] * self.q ** k)
            out.append(self.values[j])
        return tuple(out)

    def _f(self, i, j):
        out = self._fs.get((i, j))
        if out is None:
            u, v = self.values[i], self.values[j]
            out = self._fs[i, j] = _div(self.q * u - self.qinv * v, u - v)
        return out

    def f(self, u, v):
        return self._f(self.index(u), self.index(v))

    def g(self, u, v):
        return _div(self.q - self.qinv, u - v)

    def fprod(self, us, vs):
        """f over all pairs of the two sets; empty product = 1."""
        key = (len(us), self.indices((*us, *vs)))
        out = self._fprods.get(key)
        if out is None:
            ius, ivs = key[1][:key[0]], key[1][key[0]:]
            for i in ius:
                for j in ivs:
                    out = self._f(i, j) if out is None else out * self._f(i, j)
            if out is None:
                out = Rat(1)
            self._fprods[key] = out
        return out

    def k(self, xs, ys):
        """K_k(xs|ys) for two sets of equal size; K_0 = 1."""
        key = self.indices((*xs, *ys))
        out = self._ks.get(key)
        if out is None:
            vals = [self.values[i] for i in key]
            n = len(xs)
            out = self._ks[key] = _izergin(self.q, self.qinv, vals[:n], vals[n:])
        return out

    def k_side(self, k, side, vs):
        """K^(side) = k prod(vs), for ``k`` a K from `k` and ``vs`` its side's set.

        Each K that `k` memoises is its own object and is held here, so
        ``id(k)`` names the pair of sets it was computed for.
        """
        key = (id(k), side)
        out = self._ksides.get(key)
        if out is None:
            out = k
            for v in vs:
                out = out * v
            self._ksides[key] = out
        return out

    def mq(self, e):
        """(-q)^e for integer e of either sign."""
        base = -self.q if e >= 0 else -self.qinv
        out = Rat(1)
        for _ in range(abs(e)):
            out = out * base
        return out

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
    """Determinant by Gaussian elimination, generic over the scalar ring.

    Pivots on the entry of minimal valuation (plain nonzero scalars count as
    valuation 0), which keeps series windows as wide as possible.  Only exact
    zeros are skipped: a pivot column of zeros known only within their
    windows raises WindowError.  A series pivot is inverted once, at the
    first row it eliminates, and ``a / b`` is ``a * b.invert()``, so the
    factors are those of dividing.  A rational pivot divides each row: a
    division costs a rational no more than a product, and an inverse would
    be one more operation.
    """
    n = len(rows)
    if n == 0:
        return Rat(1)
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
            if not _is_series(pivot):
                factor = m[i][k] / pivot
            else:
                if pinv is None:
                    pinv = pivot.invert()
                factor = m[i][k] * pinv
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
    return result if sign == 1 else -result


def _izergin(q, qi, xs, ys):
    k = len(xs)
    if k == 0:
        return Rat(1)
    gq = q - qi
    rows = []
    for x in xs:
        factors = [q * x - qi * y for y in ys]
        row = []
        for j, y in enumerate(ys):
            num = gq
            for jp, fct in enumerate(factors):
                if jp != j:
                    num = num * fct
            row.append(_div(num, x - y))
        rows.append(row)
    denom = Rat(1)
    for i in range(k):
        for j in range(i + 1, k):
            denom = denom * (xs[i] - xs[j]) * (ys[j] - ys[i])
    return _div(det(rows), denom)


def izergin(kern, xs, ys):
    """K_k(xs|ys); K_0 = 1."""
    if len(xs) != len(ys):
        raise ValueError(f"cardinality mismatch: {len(xs)} vs {len(ys)}")
    return kern.k(xs, ys)


def izergin_side(kern, side, xs, ys):
    """K^(l) = K prod(xs) or K^(r) = K prod(ys), selected by side."""
    if side not in ("l", "r"):
        raise ValueError(f"side must be 'l' or 'r', got {side!r}")
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


def mult_pole_limit(kern, side, xs, ys, zs):
    """Both sides of the multiple-pole limit for K.

    LHS: lim_{z'->z} f^{-1}(z, z') K^(l,r)_{n+m}({x,z}|{y,z'}) evaluated by
    sequential single-variable series limits (one nested infinitesimal per
    z_j); RHS: f(x,z) f(z,y) K^(l,r)_n(x|y).  Returns (lhs, rhs).
    """
    zprime = tuple(z + eps(level=j + 1) for j, z in enumerate(zs))
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
