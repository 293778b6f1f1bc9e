"""Left/right highest coefficients Z^(l,r) and their identity evaluators.

Z^(l,r)_{a,b}(t;x|s;y) is computed via six equivalent partition-sum
representations over different set unions (their shifted sets come from
the kernel, which computes each shift once per value):

    ws       -- partitions of {s, x}            (the defining formula)
    ws-twin  -- same union, twin rewriting
    ty       -- partitions of {y, t q^-2}
    ty-twin  -- same union, twin rewriting
    tx       -- partitions of {t, x}, double sum
    sy       -- partitions of {s, y}, double sum

Sign convention: in every (+-)/(-+) exponent the side 'l' takes the upper
sign.  The identity evaluators return (lhs, rhs) pairs; residue evaluators
return the two singular (eps^-1) coefficients, and multi-variable limits are
taken sequentially with one nested infinitesimal per collapsing variable.
"""

from __future__ import annotations

from .exactnum import LaurentSeries, Rat, eps, take_limit
from .izergin import izergin_side
from .partitions import enumerate_partitions

__all__ = [
    "REPRESENTATIONS",
    "hc",
    "hc_closed_11",
    "hc_difference_11",
    "hc_symmetry_pair",
    "hc_residue_pair",
    "hc_multiple_limit_pair",
    "hc_reduction_pair",
    "hc_twin_sum_pair",
    "hc_prop51_pair",
    "decay_valuation",
    "hc_infinity_valuation",
    "singular_coeff",
]

REPRESENTATIONS = ("ws", "ws-twin", "ty", "ty-twin", "tx", "sy")


def _hc_ws(kern, side, ts, xs, ss, ys):
    a, b = len(ts), len(ss)
    u = kern.usign(side)
    opp = kern.other(side)
    w = ss + xs
    total = Rat(0)
    for w1, w2 in enumerate_partitions(w, b):
        total = total + (
            izergin_side(kern, opp, ss, kern.shift(w1, 2))
            * izergin_side(kern, side, w2, ts)
            * izergin_side(kern, side, ys, w1)
            * kern.fprod(w1, w2)
        )
    return kern.mq(-u * b) * total


def _hc_ws_twin(kern, side, ts, xs, ss, ys):
    a, b = len(ts), len(ss)
    u = kern.usign(side)
    opp = kern.other(side)
    w = ss + xs
    xq = kern.shift(xs, 2)
    total = Rat(0)
    for w1, w2 in enumerate_partitions(w, b):
        total = total + (
            izergin_side(kern, opp, w2, xq)
            * izergin_side(kern, side, w2, ts)
            * izergin_side(kern, side, ys, w1)
            * kern.fprod(w1, w2)
        )
    return kern.mq(-u * a) * total


def _hc_ty(kern, side, ts, xs, ss, ys):
    a, b = len(ts), len(ss)
    u = kern.usign(side)
    opp = kern.other(side)
    tq = kern.shift(ts, -2)
    eta = ys + tq
    xq = kern.shift(xs, -2)
    total = Rat(0)
    for e1, e2 in enumerate_partitions(eta, a):
        total = total + (
            izergin_side(kern, opp, tq, kern.shift(e1, 2))
            * izergin_side(kern, side, xq, e1)
            * izergin_side(kern, side, e2, ss)
            * kern.fprod(e1, e2)
        )
    return kern.mq(-u * a) * kern.fprod(ys, xs) * kern.fprod(ss, ts) * total


def _hc_ty_twin(kern, side, ts, xs, ss, ys):
    a, b = len(ts), len(ss)
    u = kern.usign(side)
    opp = kern.other(side)
    eta = ys + kern.shift(ts, -2)
    xq = kern.shift(xs, -2)
    yq = kern.shift(ys, 2)
    total = Rat(0)
    for e1, e2 in enumerate_partitions(eta, a):
        total = total + (
            izergin_side(kern, opp, e2, yq)
            * izergin_side(kern, side, xq, e1)
            * izergin_side(kern, side, e2, ss)
            * kern.fprod(e1, e2)
        )
    return kern.mq(-u * b) * kern.fprod(ys, xs) * kern.fprod(ss, ts) * total


def _hc_tx(kern, side, ts, xs, ss, ys):
    a = len(ts)
    u = kern.usign(side)
    total = Rat(0)
    for n in range(a + 1):
        sign = kern.mq(u * n)
        for t1, t2 in enumerate_partitions(ts, n):
            t_part = sign * kern.fprod(ss, t1) * kern.fprod(t1, t2)
            t2q = kern.shift(t2, -2)
            yt = ys + kern.shift(t1, -2)
            for x1, x2 in enumerate_partitions(xs, n):
                total = total + (
                    t_part
                    * kern.fprod(ys, x2)
                    * kern.fprod(x2, x1)
                    * izergin_side(kern, side, x1, t1)
                    * izergin_side(kern, side, x2, t2q)
                    * izergin_side(kern, side, yt, ss + x1)
                )
    return total


def _hc_sy(kern, side, ts, xs, ss, ys):
    b = len(ss)
    u = kern.usign(side)
    total = Rat(0)
    for n in range(b + 1):
        sign = kern.mq(u * n)
        for s1, s2 in enumerate_partitions(ss, n):
            s_part = sign * kern.fprod(s2, ts) * kern.fprod(s1, s2)
            s2q = kern.shift(s2, -2)
            sx = s1 + xs
            for y1, y2 in enumerate_partitions(ys, n):
                total = total + (
                    s_part
                    * kern.fprod(y1, xs)
                    * kern.fprod(y2, y1)
                    * izergin_side(kern, side, y1, s1)
                    * izergin_side(kern, side, y2, s2q)
                    * izergin_side(kern, side, sx, kern.shift(y1, 2) + ts)
                )
    return total


_REP_FUNCS = {
    "ws": _hc_ws,
    "ws-twin": _hc_ws_twin,
    "ty": _hc_ty,
    "ty-twin": _hc_ty_twin,
    "tx": _hc_tx,
    "sy": _hc_sy,
}


def hc(kern, side, ts, xs, ss, ys, rep="ws"):
    """Z^(side)_{a,b}(ts; xs | ss; ys) via the chosen representation."""
    if len(ts) != len(xs) or len(ss) != len(ys):
        raise ValueError("cardinality mismatch: #t != #x or #s != #y")
    return _REP_FUNCS[rep](kern, side, tuple(ts), tuple(xs), tuple(ss), tuple(ys))


def hc_closed_11(kern, side, t, x, s, y):
    """The a=b=1 closed form."""
    f, g = kern.f, kern.g
    term1 = g(x, t) * g(y, s) * f(s, x)
    term2 = g(x, s) * g(s, t) * g(y, x)
    if side == "l":
        return x * y * term1 + x * y * s * term2
    return t * s * term1 + t * s * x * term2


def hc_difference_11(kern, t, x, s, y):
    """(ts)^-1 Z^(r)_{1,1} - (xy)^-1 Z^(l)_{1,1} and its closed form."""
    zl = hc(kern, "l", (t,), (x,), (s,), (y,))
    zr = hc(kern, "r", (t,), (x,), (s,), (y,))
    lhs = zr / (t * s) - zl / (x * y)
    rhs = (kern.q - kern.qinv) * kern.g(s, t) * kern.g(y, x)
    return lhs, rhs


def hc_symmetry_pair(variant, kern, side, ts, xs, ss, ys, alpha=None):
    """Both sides of a global symmetry of Z.

    Z_SCAL: rescaling all arguments by alpha leaves Z invariant.
    Z_INVERS: Z_{b,a}(s;y|t q^-2; x q^-2) against
              f^-1(y,x) f^-1(s,t) Z_{a,b}(t;x|s;y).
    Z_INVERS1: Z^(side) at q^-1 against Z^(other side)_{b,a}(y;s|x;t) at q.
    """
    if variant == "Z_SCAL":
        if alpha is None or alpha == 0:
            raise ValueError("Z_SCAL requires a nonzero alpha")
        lhs = hc(
            kern,
            side,
            tuple(alpha * t for t in ts),
            tuple(alpha * x for x in xs),
            tuple(alpha * s for s in ss),
            tuple(alpha * y for y in ys),
        )
        rhs = hc(kern, side, ts, xs, ss, ys)
    elif variant == "Z_INVERS":
        lhs = hc(kern, side, ss, ys, kern.shift(ts, -2), kern.shift(xs, -2))
        rhs = hc(kern, side, ts, xs, ss, ys) / (
            kern.fprod(ys, xs) * kern.fprod(ss, ts)
        )
    elif variant == "Z_INVERS1":
        lhs = hc(kern.inverted(), side, ts, xs, ss, ys)
        rhs = hc(kern, kern.other(side), ys, ss, xs, ts)
    else:
        raise ValueError(f"unknown symmetry variant {variant!r}")
    return lhs, rhs


def singular_coeff(value):
    """Coefficient of eps^-1; a plain scalar has none."""
    if isinstance(value, LaurentSeries):
        return value.coeff(-1)
    return Rat(0)


def hc_residue_pair(variant, kern, side, ts, xs, ss, ys):
    """The eps^-1 coefficients of both sides of a simple-pole residue formula.

    The colliding variable is replaced by its target plus an infinitesimal;
    only the singular parts are compared (the regular parts are out of
    contract).
    """
    ts, xs, ss, ys = tuple(ts), tuple(xs), tuple(ss), tuple(ys)
    f, fprod = kern.f, kern.fprod
    e = eps()
    if variant == "S_TO_Y":
        sb = ys[-1] + e
        lhs = hc(kern, side, ts, xs, ss[:-1] + (sb,), ys)
        rhs = (
            f(ys[-1], sb)
            * fprod((ys[-1],), ss[:-1])
            * fprod(ys[:-1], (ys[-1],))
            * fprod((ys[-1],), xs)
            * hc(kern, side, ts, xs, ss[:-1], ys[:-1])
        )
    elif variant == "T_TO_X":
        ta = xs[-1] + e
        lhs = hc(kern, side, ts[:-1] + (ta,), xs, ss, ys)
        rhs = (
            f(xs[-1], ta)
            * fprod((xs[-1],), ts[:-1])
            * fprod(xs[:-1], (xs[-1],))
            * fprod(ss, (xs[-1],))
            * hc(kern, side, ts[:-1], xs[:-1], ss, ys)
        )
    elif variant == "S_TO_T":
        sb = ts[-1] + e
        lhs = hc(kern, side, ts, xs, ss[:-1] + (sb,), ys)
        total = Rat(0)
        for p in range(len(xs)):
            xp = xs[p]
            rest = xs[:p] + xs[p + 1:]
            total = total + (
                izergin_side(kern, side, (xp,), (ts[-1],))
                * fprod(rest, (xp,))
                * hc(kern, side, ts[:-1], rest, ss[:-1] + (xp,), ys)
            )
        rhs = f(sb, ts[-1]) * fprod(ss[:-1], (sb,)) * fprod((ts[-1],), ts[:-1]) * total
    elif variant == "Y_TO_X":
        yb = xs[-1] + e
        lhs = hc(kern, side, ts, xs, ss, ys[:-1] + (yb,))
        total = Rat(0)
        for p in range(len(ss)):
            sp = ss[p]
            rest = ss[:p] + ss[p + 1:]
            total = total + (
                izergin_side(kern, side, (xs[-1],), (sp,))
                * fprod((sp,), rest)
                * hc(kern, side, ts, xs[:-1] + (sp,), rest, ys[:-1])
            )
        rhs = f(yb, xs[-1]) * fprod(ys[:-1], (yb,)) * fprod((xs[-1],), xs[:-1]) * total
    else:
        raise ValueError(f"unknown residue variant {variant!r}")
    return singular_coeff(lhs), singular_coeff(rhs)


def _nested_primes(zs):
    """One infinitesimal per collapsing variable, innermost first."""
    return tuple(z + eps(level=j + 1) for j, z in enumerate(zs))


def hc_multiple_limit_pair(variant, kern, side, ts, xs, ss, ys, zs):
    """Both sides of a multiple-pole limit identity.

    The LHS limit z' -> z is evaluated one variable at a time via nested
    series levels; the combined expression must be regular, otherwise the
    limit raises.  Returns (lhs, rhs) as plain scalars.
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    n = len(zs)
    zp = _nested_primes(zs)
    if variant == "RED1":
        lhs = take_limit(
            hc(kern, side, ts + zs, xs + zp, ss, ys) / fprod(zp, zs)
        )
        rhs = (
            fprod(zs, ts)
            * fprod(xs, zs)
            * fprod(ss, zs)
            * hc(kern, side, ts, xs, ss, ys)
        )
    elif variant == "RED2":
        lhs = take_limit(
            hc(kern, side, ts, xs, ss + zs, ys + zp) / fprod(zp, zs)
        )
        rhs = (
            fprod(zs, xs)
            * fprod(zs, ss)
            * fprod(ys, zs)
            * hc(kern, side, ts, xs, ss, ys)
        )
    elif variant == "NONTRIV2":
        lhs = take_limit(
            hc(kern, side, ts + zp, xs, ss + zs, ys) / fprod(zs, zp)
        )
        total = Rat(0)
        for x1, x2 in enumerate_partitions(xs, n):
            total = total + (
                izergin_side(kern, side, x1, zs)
                * fprod(x2, x1)
                * hc(kern, side, ts, x2, ss + x1, ys)
            )
        rhs = fprod(ss, zs) * fprod(zs, ts) * total
    elif variant == "NONTRIV22":
        lhs = take_limit(
            hc(kern, side, ts, xs + zp, ss, ys + zs) / fprod(zs, zp)
        )
        total = Rat(0)
        for s1, s2 in enumerate_partitions(ss, n):
            total = total + (
                izergin_side(kern, side, zs, s1)
                * fprod(s1, s2)
                * hc(kern, side, ts, xs + s1, s2, ys)
            )
        rhs = fprod(ys, zs) * fprod(zs, xs) * total
    else:
        raise ValueError(f"unknown multiple-limit variant {variant!r}")
    return lhs, rhs


def hc_reduction_pair(variant, kern, side, ts, xs, ss, ys, zs):
    """Both sides of a plain (limit-free) reduction at shifted-coincident points."""
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    n = len(zs)
    if variant == "DEC2":
        lhs = hc(kern, side, ts + kern.shift(zs, 2), xs, ss + zs, ys)
        total = Rat(0)
        for y1, y2 in enumerate_partitions(ys, n):
            total = total + (
                izergin_side(kern, side, y1, zs)
                * hc(kern, side, ts + kern.shift(y1, 2), xs, ss, y2)
                * fprod(y2, y1)
                * fprod(y1, xs)
                * fprod(y1, ss)
            )
        rhs = total
    elif variant == "DEC1":
        lhs = hc(kern, side, ts, xs + zs, ss, ys + kern.shift(zs, -2))
        total = Rat(0)
        for t1, t2 in enumerate_partitions(ts, n):
            total = total + (
                izergin_side(kern, side, zs, t1)
                * hc(kern, side, t2, xs, ss, ys + kern.shift(t1, -2))
                * fprod(t1, t2)
                * fprod(xs, t1)
                * fprod(ss, t1)
            )
        rhs = total
    elif variant == "DEC2_PC":
        # b <= a, #z = b, s-slot = z itself
        if len(zs) != len(ys):
            raise ValueError("DEC2_PC requires #z = b")
        lhs = hc(kern, side, ts + kern.shift(zs, 2), xs, zs, ys)
        rhs = (
            fprod(ys, xs)
            * izergin_side(kern, side, ys, zs)
            * izergin_side(kern, side, xs, ts + kern.shift(ys, 2))
        )
    elif variant == "DEC1_PC":
        # a <= b, #z = a, x-slot = z itself
        if len(zs) != len(ts):
            raise ValueError("DEC1_PC requires #z = a")
        lhs = hc(kern, side, ts, zs, ss, ys + kern.shift(zs, -2))
        rhs = (
            fprod(ss, ts)
            * izergin_side(kern, side, zs, ts)
            * izergin_side(kern, side, ys + kern.shift(ts, -2), ss)
        )
    else:
        raise ValueError(f"unknown reduction variant {variant!r}")
    return lhs, rhs


def hc_twin_sum_pair(variant, kern, side, ts, xs, ss, ys, xi):
    """Both sides of a three-determinant partition sum reducible to Z.

    Variants 1 and 2 need a >= b and sum over t-partitions (xs is unused and
    must be empty there); variants 3 and 4 need a <= b and sum over
    y-partitions (ss must be empty there).  #xi = |a - b| in all cases.
    """
    ts, xs, ss, ys, xi = map(tuple, (ts, xs, ss, ys, xi))
    u = kern.usign(side)
    opp = kern.other(side)
    fprod = kern.fprod
    if variant in (1, 2):
        if xs:
            raise ValueError("variants 1 and 2 take no x-set")
        a, b = len(ts), len(ss)
        if len(ys) != b or len(xi) != a - b:
            raise ValueError("variants 1 and 2 require #y = b and #xi = a - b")
        total = Rat(0)
        for t1, t2 in enumerate_partitions(ts, b):
            first = izergin_side(
                kern, opp if variant == 1 else side, t1, kern.shift(ys, 2)
            )
            second = izergin_side(
                kern, side if variant == 1 else opp, t1, kern.shift(ss, 2)
            )
            total = total + (
                first * second * izergin_side(kern, side, xi, t2) * fprod(t2, t1)
            )
        lhs = total
        if variant == 1:
            z = hc(kern, side, ts, xi + ys, ss, kern.shift(ys, -2))
        else:
            z = hc(kern, side, ts, xi + ss, ys, kern.shift(ss, -2))
        rhs = kern.mq(u * b) * z / (fprod(ys, ts) * fprod(ss, ts))
    elif variant in (3, 4):
        if ss:
            raise ValueError("variants 3 and 4 take no s-set")
        a, b = len(ts), len(ys)
        if len(xs) != a or len(xi) != b - a:
            raise ValueError("variants 3 and 4 require #x = a and #xi = b - a")
        tq = kern.shift(ts, -2)
        xq = kern.shift(xs, -2)
        total = Rat(0)
        for y1, y2 in enumerate_partitions(ys, a):
            first = izergin_side(kern, opp if variant == 3 else side, tq, y1)
            second = izergin_side(kern, side if variant == 3 else opp, xq, y1)
            total = total + (
                first * second * izergin_side(kern, side, y2, xi) * fprod(y1, y2)
            )
        lhs = total
        if variant == 3:
            z = hc(kern, side, kern.shift(ts, 2), xs, xi + ts, ys)
        else:
            z = hc(kern, side, kern.shift(xs, 2), ts, xi + xs, ys)
        rhs = kern.mq(u * a) * z / (fprod(ys, ts) * fprod(ys, xs))
    else:
        raise ValueError(f"unknown twin variant {variant!r}")
    return lhs, rhs


def hc_prop51_pair(kern, side, ts, xs, ss, ys, ws, zs):
    """Both sides of the double-partition summation identity.

    Cardinalities: #t = #x = a, #s = b, #y = p <= b, #w = b - p, #z = n.
    """
    ts, xs, ss, ys, ws, zs = map(tuple, (ts, xs, ss, ys, ws, zs))
    b, p = len(ss), len(ys)
    if len(ws) != b - p:
        raise ValueError("cardinality mismatch: #w must equal #s - #y")
    u = kern.usign(side)
    opp = kern.other(side)
    fprod = kern.fprod
    xi = kern.shift(xs, -2) + kern.shift(zs, -2)
    lhs = fprod(xi, ys) * hc(kern, side, ts, xs, ss, ys + ws)
    total = Rat(0)
    for k in range(max(0, p - len(xi)), min(p, b) + 1):
        for s1, s2 in enumerate_partitions(ss, k):
            for x1, x2 in enumerate_partitions(xi, p - k):
                total = total + (
                    kern.mq(-u * k)
                    * izergin_side(kern, opp, kern.shift(s1, -2) + x1, ys)
                    * hc(kern, side, ts, xs, s2, ws + x1)
                    * fprod(s1, s2)
                    * fprod(x2, x1)
                    * fprod(ys, s1)
                    * fprod(ws, s1)
                    / fprod(s1, zs)
                )
    return lhs, total


def decay_valuation(value):
    """A lower bound on the valuation in delta of a value at an argument 1/delta.

    Valuation >= 1 means decay, >= 0 means bounded.  An exact zero decays; a
    zero known only below its truncation order returns that order, which is
    all that is known.  A nonzero scalar is bounded.
    """
    if not isinstance(value, LaurentSeries):
        return 1 if value == 0 else 0
    if value.is_zero():
        return 1 if value.is_exact() else int(value.order)
    return value.valuation


def hc_infinity_valuation(kern, side, ts, xs, ss, ys, slot):
    """Series valuation of Z when the first argument of one set goes to infinity.

    The first argument of ``slot`` ("t", "x", "s" or "y") is replaced by
    1/delta; returns `decay_valuation` of the resulting series in delta.
    """
    big = eps().invert()
    sets = {"t": list(ts), "x": list(xs), "s": list(ss), "y": list(ys)}
    sets[slot][0] = big
    value = hc(kern, side, *(tuple(sets[k]) for k in "txsy"))
    if not isinstance(value, LaurentSeries):
        raise ValueError("expected a series result for an infinite argument")
    return decay_valuation(value)
