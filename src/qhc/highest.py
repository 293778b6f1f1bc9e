"""Left/right highest coefficients Z^(l,r) and their identity evaluators.

Z^(l,r)_{a,b}(t;x|s;y) is computed via six equivalent partition-sum
representations over different set unions (their shifted sets come from
the kernel, which computes each shift once per value):

    ws       -- partitions of {s, x}            (the defining formula;
                one integer fraction per Z at a rational point, summed
                by `_ws_cells` over a grid of t sets by y sets)
    ws-twin  -- same union, twin rewriting
    ty       -- partitions of {y, t q^-2}
    ty-twin  -- same union, twin rewriting
    tx       -- partitions of {t, x}, double sum
    sy       -- partitions of {s, y}, double sum

Sign convention: in every (+-)/(-+) exponent the side 'l' takes the upper
sign.  Each identity has its own evaluator `hc_<id>_pair(kern, side, *sets)`
returning (lhs, rhs); in its formula Z and K carry that side, K^(o) the other
one, and f(u, v) is the product of f over all pairs.  Residue evaluators
return the two singular (eps^-1) coefficients, and multi-variable limits are
taken sequentially with one nested infinitesimal per collapsing variable.
"""

from __future__ import annotations

from .exactnum import LaurentSeries, Rat, _plus, _ratio, _times, eps, take_limit
from .izergin import izergin, izergin_side, nested_primes
from .partitions import enumerate_partitions

__all__ = [
    "REPRESENTATIONS", "hc", "hc_closed_11", "hc_difference_11",
    "hc_z_scal_pair", "hc_z_invers_pair", "hc_z_invers1_pair",
    "hc_rec_z_triv1_pair", "hc_rec_z_triv2_pair", "hc_rec_z_nontriv_pair",
    "hc_rec_z_nontriv_d_pair",
    "hc_red1_pair", "hc_red2_pair", "hc_nontriv2_pair", "hc_nontriv22_pair",
    "hc_dec1_pair", "hc_dec2_pair", "hc_dec1_pc_pair", "hc_dec2_pc_pair",
    "hc_twin_1_pair", "hc_twin_2_pair", "hc_twin_3_pair", "hc_twin_4_pair",
    "hc_prop51_pair", "decay_valuation", "hc_infinity_valuation", "singular_coeff",
]

REPRESENTATIONS = ("ws", "ws-twin", "ty", "ty-twin", "tx", "sy")


def _ws_cells(kern, side, tss, xs, ss, yss):
    """[[Z^(side)_{a,b}(ts; xs | ss; ys) for ys in yss] for ts in tss] by the ws sum.

    Each cell is an unreduced (numerator, denominator), which `_ratio`
    divides: one ``Rat`` at a rational point, and a series scaled once where
    a value is a series.  ``tss`` and ``yss`` are nonempty lists of tuples,
    each t set of the size of ``xs`` and each y set of that of ``ss``; `hc`
    with rep "ws" is the one-cell grid.  Every value is read through its
    numerator and denominator (a series is its own numerator over 1), so a
    denominator is an ``int`` and a numerator is an ``int`` at a rational
    point and a series where a value is one.  Since K^(l)(X | Y) =
    K prod(X) and K^(r)(X | Y) = K prod(Y), the side products of a term
    are, for side l, q^2b prod(s, x) prod(y), the same for every split, and,
    for side r, prod(s) prod(t) prod(w_I).  So the sum reads plain K through
    `izergin`: per split of {s, x} into {w_I, w_II}, K(ss | w_I q^2) and
    f(w_I, w_II) are formed once for the whole grid (with prod(w_I) for
    side r), K(ys | w_I) once per y set and K(w_II | ts) once per t set, and
    each cell's term, their product, is added to its cell's running
    fraction (`_plus`).  Every K(ss | w_I q^2) shares ss and every
    K(ys | w_I) its ys, so those name their xs as the fixed set
    (``columns``); every K(w_II | ts) shares ts, the default.  Each cell is
    then multiplied once by (-q)^b, which is the sign (-q)^(-+b) for side r
    and that sign times q^2b for side l, and by prod(s, x) prod(y) (side l)
    or prod(s) prod(t) (side r).
    """
    b, width = len(ss), len(yss)
    left = side == "l"
    nums, dens = [0] * (len(tss) * width), [1] * (len(tss) * width)
    for w1, w2 in enumerate_partitions(ss + xs, b):
        k_o = izergin(kern, ss, kern.shift(w1, 2), columns=True)
        f12 = kern.fprod(w1, w2)
        cn = k_o.numerator * f12.numerator
        cd = k_o.denominator * f12.denominator
        if not left:
            cn, cd = _times(cn, cd, w1)
        k_ys = [izergin(kern, ys, w1, columns=True) for ys in yss]
        c = 0
        for ts in tss:
            k_t = izergin(kern, w2, ts)
            tn, td = cn * k_t.numerator, cd * k_t.denominator
            for k_y in k_ys:
                nums[c], dens[c] = _plus(nums[c], dens[c], tn * k_y.numerator, td * k_y.denominator)
                c += 1
    sign = kern.mq(b)
    sn, sd = _times(sign.numerator, sign.denominator, ss + xs if left else ss)
    rows = [_times(sn, sd, () if left else ts) for ts in tss]
    cols = [_times(1, 1, ys if left else ()) for ys in yss]
    return [[(nums[i * width + j] * rn * yn, dens[i * width + j] * rd * yd)
             for j, (yn, yd) in enumerate(cols)] for i, (rn, rd) in enumerate(rows)]


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
    a = len(ts)
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
    "ws": lambda kern, side, ts, xs, ss, ys: _ratio(
        *_ws_cells(kern, side, [ts], xs, ss, [ys])[0][0]),
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
    if rep not in _REP_FUNCS:
        raise ValueError(f"rep must be one of {', '.join(REPRESENTATIONS)}, got {rep!r}")
    kern.usign(side)
    return _REP_FUNCS[rep](kern, side, tuple(ts), tuple(xs), tuple(ss), tuple(ys))


def hc_closed_11(kern, side, t, x, s, y):
    """The a=b=1 closed form."""
    kern.usign(side)
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


def hc_z_scal_pair(kern, side, ts, xs, ss, ys, alpha):
    """Z(alpha t; alpha x | alpha s; alpha y) = Z(t; x | s; y) for alpha != 0."""
    if alpha == 0:
        raise ValueError("Z_SCAL requires a nonzero alpha")
    lhs = hc(kern, side, *(tuple(alpha * v for v in vals) for vals in (ts, xs, ss, ys)))
    return lhs, hc(kern, side, ts, xs, ss, ys)


def hc_z_invers_pair(kern, side, ts, xs, ss, ys):
    """Z_{b,a}(s; y | t q^-2; x q^-2) = f^-1(y, x) f^-1(s, t) Z_{a,b}(t; x | s; y)."""
    lhs = hc(kern, side, ss, ys, kern.shift(ts, -2), kern.shift(xs, -2))
    return lhs, hc(kern, side, ts, xs, ss, ys) / (kern.fprod(ys, xs) * kern.fprod(ss, ts))


def hc_z_invers1_pair(kern, side, ts, xs, ss, ys):
    """Z_{a,b}(t; x | s; y) at q^-1 = Z^(o)_{b,a}(y; s | x; t) at q."""
    lhs = hc(kern.inverted(), side, ts, xs, ss, ys)
    return lhs, hc(kern, kern.other(side), ys, ss, xs, ts)


def singular_coeff(value):
    """Coefficient of eps^-1; a plain scalar has none."""
    if isinstance(value, LaurentSeries):
        return value.coeff(-1)
    return Rat(0)


def hc_rec_z_triv1_pair(kern, side, ts, xs, ss, ys):
    """Residue at s_b = y_b (s^, y^ drop s_b, y_b):

    Z(t; x | s; y) ~ f(y_b, s_b) f(y_b, s^) f(y^, y_b) f(y_b, x) Z(t; x | s^; y^).
    """
    ts, xs, ss, ys = map(tuple, (ts, xs, ss, ys))
    fprod = kern.fprod
    sb = ys[-1] + eps()
    lhs = hc(kern, side, ts, xs, ss[:-1] + (sb,), ys)
    rhs = (kern.f(ys[-1], sb) * fprod(ys[-1:], ss[:-1]) * fprod(ys[:-1], ys[-1:])
           * fprod(ys[-1:], xs) * hc(kern, side, ts, xs, ss[:-1], ys[:-1]))
    return singular_coeff(lhs), singular_coeff(rhs)


def hc_rec_z_triv2_pair(kern, side, ts, xs, ss, ys):
    """Residue at t_a = x_a (t^, x^ drop t_a, x_a):

    Z(t; x | s; y) ~ f(x_a, t_a) f(x_a, t^) f(x^, x_a) f(s, x_a) Z(t^; x^ | s; y).
    """
    ts, xs, ss, ys = map(tuple, (ts, xs, ss, ys))
    fprod = kern.fprod
    ta = xs[-1] + eps()
    lhs = hc(kern, side, ts[:-1] + (ta,), xs, ss, ys)
    rhs = (kern.f(xs[-1], ta) * fprod(xs[-1:], ts[:-1]) * fprod(xs[:-1], xs[-1:])
           * fprod(ss, xs[-1:]) * hc(kern, side, ts[:-1], xs[:-1], ss, ys))
    return singular_coeff(lhs), singular_coeff(rhs)


def hc_rec_z_nontriv_pair(kern, side, ts, xs, ss, ys):
    """Residue at s_b = t_a (s^, t^ drop s_b, t_a; x^_p drops x_p):

    Z(t; x | s; y) ~ f(s_b, t_a) f(s^, s_b) f(t_a, t^)
                     sum_p K(x_p | t_a) f(x^_p, x_p) Z(t^; x^_p | {s^, x_p}; y).
    """
    ts, xs, ss, ys = map(tuple, (ts, xs, ss, ys))
    fprod = kern.fprod
    sb = ts[-1] + eps()
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
    rhs = kern.f(sb, ts[-1]) * fprod(ss[:-1], (sb,)) * fprod(ts[-1:], ts[:-1]) * total
    return singular_coeff(lhs), singular_coeff(rhs)


def hc_rec_z_nontriv_d_pair(kern, side, ts, xs, ss, ys):
    """Residue at y_b = x_a (y^, x^ drop y_b, x_a; s^_p drops s_p):

    Z(t; x | s; y) ~ f(y_b, x_a) f(y^, y_b) f(x_a, x^)
                     sum_p K(x_a | s_p) f(s_p, s^_p) Z(t; {x^, s_p} | s^_p; y^).
    """
    ts, xs, ss, ys = map(tuple, (ts, xs, ss, ys))
    fprod = kern.fprod
    yb = xs[-1] + eps()
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
    rhs = kern.f(yb, xs[-1]) * fprod(ys[:-1], (yb,)) * fprod(xs[-1:], xs[:-1]) * total
    return singular_coeff(lhs), singular_coeff(rhs)


def hc_red1_pair(kern, side, ts, xs, ss, ys, zs):
    """lim_{z'->z} f^-1(z', z) Z({t, z}; {x, z'} | s; y)
    = f(z, t) f(x, z) f(s, z) Z(t; x | s; y).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    zp = nested_primes(zs)
    lhs = take_limit(hc(kern, side, ts + zs, xs + zp, ss, ys) / fprod(zp, zs))
    return lhs, fprod(zs, ts) * fprod(xs, zs) * fprod(ss, zs) * hc(kern, side, ts, xs, ss, ys)


def hc_red2_pair(kern, side, ts, xs, ss, ys, zs):
    """lim_{z'->z} f^-1(z', z) Z(t; x | {s, z}; {y, z'})
    = f(z, x) f(z, s) f(y, z) Z(t; x | s; y).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    zp = nested_primes(zs)
    lhs = take_limit(hc(kern, side, ts, xs, ss + zs, ys + zp) / fprod(zp, zs))
    return lhs, fprod(zs, xs) * fprod(zs, ss) * fprod(ys, zs) * hc(kern, side, ts, xs, ss, ys)


def hc_nontriv2_pair(kern, side, ts, xs, ss, ys, zs):
    """lim_{z'->z} f^-1(z, z') Z({t, z'}; x | {s, z}; y)
    = f(s, z) f(z, t) sum_{x -> x1, x2; #x1 = #z} K(x1 | z) f(x2, x1) Z(t; x2 | {s, x1}; y).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    zp = nested_primes(zs)
    lhs = take_limit(hc(kern, side, ts + zp, xs, ss + zs, ys) / fprod(zs, zp))
    total = Rat(0)
    for x1, x2 in enumerate_partitions(xs, len(zs)):
        total = total + (
            izergin_side(kern, side, x1, zs) * fprod(x2, x1) * hc(kern, side, ts, x2, ss + x1, ys)
        )
    return lhs, fprod(ss, zs) * fprod(zs, ts) * total


def hc_nontriv22_pair(kern, side, ts, xs, ss, ys, zs):
    """lim_{z'->z} f^-1(z, z') Z(t; {x, z'} | s; {y, z})
    = f(y, z) f(z, x) sum_{s -> s1, s2; #s1 = #z} K(z | s1) f(s1, s2) Z(t; {x, s1} | s2; y).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    zp = nested_primes(zs)
    lhs = take_limit(hc(kern, side, ts, xs + zp, ss, ys + zs) / fprod(zs, zp))
    total = Rat(0)
    for s1, s2 in enumerate_partitions(ss, len(zs)):
        total = total + (
            izergin_side(kern, side, zs, s1) * fprod(s1, s2) * hc(kern, side, ts, xs + s1, s2, ys)
        )
    return lhs, fprod(ys, zs) * fprod(zs, xs) * total


def hc_dec1_pair(kern, side, ts, xs, ss, ys, zs):
    """Z(t; {x, z} | s; {y, z q^-2})
    = sum_{t -> t1, t2; #t1 = #z} K(z | t1) f(t1, t2) f(x, t1) f(s, t1) Z(t2; x | s; {y, t1 q^-2}).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    lhs = hc(kern, side, ts, xs + zs, ss, ys + kern.shift(zs, -2))
    total = Rat(0)
    for t1, t2 in enumerate_partitions(ts, len(zs)):
        total = total + (
            izergin_side(kern, side, zs, t1)
            * hc(kern, side, t2, xs, ss, ys + kern.shift(t1, -2))
            * fprod(t1, t2)
            * fprod(xs, t1)
            * fprod(ss, t1)
        )
    return lhs, total


def hc_dec2_pair(kern, side, ts, xs, ss, ys, zs):
    """Z({t, z q^2}; x | {s, z}; y)
    = sum_{y -> y1, y2; #y1 = #z} K(y1 | z) f(y2, y1) f(y1, x) f(y1, s) Z({t, y1 q^2}; x | s; y2).
    """
    ts, xs, ss, ys, zs = map(tuple, (ts, xs, ss, ys, zs))
    fprod = kern.fprod
    lhs = hc(kern, side, ts + kern.shift(zs, 2), xs, ss + zs, ys)
    total = Rat(0)
    for y1, y2 in enumerate_partitions(ys, len(zs)):
        total = total + (
            izergin_side(kern, side, y1, zs)
            * hc(kern, side, ts + kern.shift(y1, 2), xs, ss, y2)
            * fprod(y2, y1)
            * fprod(y1, xs)
            * fprod(y1, ss)
        )
    return lhs, total


def hc_dec1_pc_pair(kern, side, ts, ss, ys, zs):
    """Z(t; z | s; {y, z q^-2}) = f(s, t) K(z | t) K({y, t q^-2} | s) for #z = a <= b."""
    ts, ss, ys, zs = map(tuple, (ts, ss, ys, zs))
    if len(zs) != len(ts):
        raise ValueError("DEC1_PC requires #z = a")
    lhs = hc(kern, side, ts, zs, ss, ys + kern.shift(zs, -2))
    return lhs, (kern.fprod(ss, ts) * izergin_side(kern, side, zs, ts)
                 * izergin_side(kern, side, ys + kern.shift(ts, -2), ss))


def hc_dec2_pc_pair(kern, side, ts, xs, ys, zs):
    """Z({t, z q^2}; x | z; y) = f(y, x) K(y | z) K(x | {t, y q^2}) for #z = b <= a."""
    ts, xs, ys, zs = map(tuple, (ts, xs, ys, zs))
    if len(zs) != len(ys):
        raise ValueError("DEC2_PC requires #z = b")
    lhs = hc(kern, side, ts + kern.shift(zs, 2), xs, zs, ys)
    return lhs, (kern.fprod(ys, xs) * izergin_side(kern, side, ys, zs)
                 * izergin_side(kern, side, xs, ts + kern.shift(ys, 2)))


def _twin_t_sum(kern, side, ts, us, vs, xi):
    """TWIN_1 with y, s as us, vs; TWIN_2 is the same sum with s, y as us, vs."""
    ts, us, vs, xi = map(tuple, (ts, us, vs, xi))
    if len(us) != len(vs) or len(xi) != len(ts) - len(vs):
        raise ValueError("TWIN_1 and TWIN_2 require #y = #s and #xi = #t - #s")
    fprod = kern.fprod
    uq, vq = kern.shift(us, 2), kern.shift(vs, 2)
    total = Rat(0)
    for t1, t2 in enumerate_partitions(ts, len(vs)):
        total = total + (
            izergin_side(kern, kern.other(side), t1, uq)
            * izergin_side(kern, side, t1, vq)
            * izergin_side(kern, side, xi, t2)
            * fprod(t2, t1)
        )
    z = hc(kern, side, ts, xi + us, vs, kern.shift(us, -2))
    return total, kern.mq(kern.usign(side) * len(vs)) * z / (fprod(us, ts) * fprod(vs, ts))


def hc_twin_1_pair(kern, side, ts, ss, ys, xi):
    """TWIN_1, for a >= b and #xi = a - b:

    sum_{t -> t1, t2; #t1 = b} K^(o)(t1 | y q^2) K(t1 | s q^2) K(xi | t2) f(t2, t1)
    = (-q)^(+-b) Z(t; {xi, y} | s; y q^-2) / (f(y, t) f(s, t)).
    """
    return _twin_t_sum(kern, side, ts, ys, ss, xi)


def hc_twin_2_pair(kern, side, ts, ss, ys, xi):
    """TWIN_2, for a >= b and #xi = a - b:

    sum_{t -> t1, t2; #t1 = b} K(t1 | y q^2) K^(o)(t1 | s q^2) K(xi | t2) f(t2, t1)
    = (-q)^(+-b) Z(t; {xi, s} | y; s q^-2) / (f(y, t) f(s, t)).
    """
    return _twin_t_sum(kern, side, ts, ss, ys, xi)


def _twin_y_sum(kern, side, us, vs, ys, xi):
    """TWIN_3 with t, x as us, vs; TWIN_4 is the same sum with x, t as us, vs."""
    us, vs, ys, xi = map(tuple, (us, vs, ys, xi))
    if len(vs) != len(us) or len(xi) != len(ys) - len(us):
        raise ValueError("TWIN_3 and TWIN_4 require #x = #t and #xi = #y - #t")
    fprod = kern.fprod
    uq, vq = kern.shift(us, -2), kern.shift(vs, -2)
    total = Rat(0)
    for y1, y2 in enumerate_partitions(ys, len(us)):
        total = total + (
            izergin_side(kern, kern.other(side), uq, y1)
            * izergin_side(kern, side, vq, y1)
            * izergin_side(kern, side, y2, xi)
            * fprod(y1, y2)
        )
    z = hc(kern, side, kern.shift(us, 2), vs, xi + us, ys)
    return total, kern.mq(kern.usign(side) * len(us)) * z / (fprod(ys, us) * fprod(ys, vs))


def hc_twin_3_pair(kern, side, ts, xs, ys, xi):
    """TWIN_3, for a <= b and #xi = b - a:

    sum_{y -> y1, y2; #y1 = a} K^(o)(t q^-2 | y1) K(x q^-2 | y1) K(y2 | xi) f(y1, y2)
    = (-q)^(+-a) Z(t q^2; x | {xi, t}; y) / (f(y, t) f(y, x)).
    """
    return _twin_y_sum(kern, side, ts, xs, ys, xi)


def hc_twin_4_pair(kern, side, ts, xs, ys, xi):
    """TWIN_4, for a <= b and #xi = b - a:

    sum_{y -> y1, y2; #y1 = a} K(t q^-2 | y1) K^(o)(x q^-2 | y1) K(y2 | xi) f(y1, y2)
    = (-q)^(+-a) Z(x q^2; t | {xi, x}; y) / (f(y, t) f(y, x)).
    """
    return _twin_y_sum(kern, side, xs, ts, ys, xi)


def hc_prop51_pair(kern, side, ts, xs, ss, ys, ws, zs):
    """Both sides of the double-partition summation identity.

    Cardinalities: #t = #x = a, #s = b, #y = p <= b, #w = b - p, #z = n.
    On the right, the Z of every split of xi comes from one ws grid per
    split of s, as the unreduced cells of `_ws_cells`, and the factors of
    s_I alone, with the side product of K^(o) common to the grid, are formed
    once per split.  The inner and outer sums run as one numerator over one
    integer denominator (`_plus`), which `_ratio` divides once.
    """
    ts, xs, ss, ys, ws, zs = map(tuple, (ts, xs, ss, ys, ws, zs))
    b, p = len(ss), len(ys)
    if len(ws) != b - p:
        raise ValueError("cardinality mismatch: #w must equal #s - #y")
    u = kern.usign(side)
    left_o = kern.other(side) == "l"
    fprod = kern.fprod
    xi = kern.shift(xs, -2) + kern.shift(zs, -2)
    lhs = fprod(xi, ys) * hc(kern, side, ts, xs, ss, ys + ws)
    tn, td = 0, 1
    for k in range(max(0, p - len(xi)), min(p, b) + 1):
        sign = kern.mq(-u * k)
        splits = list(enumerate_partitions(xi, p - k))
        for s1, s2 in enumerate_partitions(ss, k):
            s1q = kern.shift(s1, -2)
            cells = _ws_cells(kern, side, [ts], xs, s2, [ws + x1 for x1, _ in splits])[0]
            num, den = 0, 1
            for (x1, x2), (zn, zd) in zip(splits, cells):
                k_o = izergin(kern, s1q + x1, ys)
                f = fprod(x2, x1)
                num, den = _plus(num, den, *_times(k_o.numerator * zn * f.numerator,
                                                   k_o.denominator * zd * f.denominator,
                                                   x1 if left_o else ()))
            c = sign * fprod(s1, s2) * fprod(ys, s1) * fprod(ws, s1) / fprod(s1, zs)
            tn, td = _plus(tn, td, *_times(c.numerator * num, c.denominator * den,
                                           s1q if left_o else ys))
    return lhs, _ratio(tn, td)


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
    sets = {"t": list(ts), "x": list(xs), "s": list(ss), "y": list(ys)}
    if slot not in sets:
        raise ValueError(f"unknown slot {slot!r} (expected t, x, s or y)")
    if not sets[slot]:
        raise ValueError(f"slot {slot!r} is empty: it has no argument to send to infinity")
    sets[slot][0] = eps().invert()
    value = hc(kern, side, *(tuple(sets[k]) for k in "txsy"))
    if not isinstance(value, LaurentSeries):
        raise ValueError("expected a series result for an infinite argument")
    return decay_valuation(value)
