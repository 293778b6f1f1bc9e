"""Identity registry and seeded sweep driver.

Every in-scope identity is a descriptor with a stable id, the suite it
belongs to, a shape generator, and a runner that samples a generic point and
evaluates both sides exactly.  Almost every runner is built by `_identity`
from a table row: the pool cardinalities of a shape, the names of the sampled
sets, and an evaluator returning both sides.  Every case ends as a record with
full replay data (seed, q, and all parameter sets), also when it raises; the
only comparison anywhere is exact rational equality.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass

from .exactnum import (
    INVERT_TERMS, LaurentSeries, Rat, WindowError, eps, invert_window, scalar_format,
)
from .highest import (
    REPRESENTATIONS, decay_valuation, hc, hc_dec1_pair, hc_dec1_pc_pair, hc_dec2_pair,
    hc_dec2_pc_pair, hc_difference_11, hc_infinity_valuation, hc_nontriv2_pair,
    hc_nontriv22_pair, hc_prop51_pair, hc_rec_z_nontriv_d_pair, hc_rec_z_nontriv_pair,
    hc_rec_z_triv1_pair, hc_rec_z_triv2_pair, hc_red1_pair, hc_red2_pair, hc_twin_1_pair,
    hc_twin_2_pair, hc_twin_3_pair, hc_twin_4_pair, hc_z_invers1_pair, hc_z_invers_pair,
    hc_z_scal_pair, singular_coeff,
)
from .izergin import Kernel, izergin_side, lemma_partition_sum, mult_pole_limit
from .params import MAX_ABS, sample_generic
from .scalar import extract_coefficient, monomial, scalar_product_symbolic, w_part

__all__ = ["registry", "run_suite", "SUITES"]

SUITES = ("all", "izergin", "hc-reps", "symmetries", "residues", "reductions", "twins",
          "prop51", "scalar")

SIDES = ("l", "r")


@dataclass(frozen=True)
class IdentityDescriptor:
    identity_id: str
    suite: str
    shapes: object  # callable (a_max, b_max) -> list of shape tuples
    run: object  # callable (shape, q, case_seed) -> (lhs, rhs, ok, params)


def _case_seed(base_seed, identity_id, shape, trial):
    key = f"{base_seed}|{identity_id}|{shape}|{trial}"
    return zlib.crc32(key.encode())


# Inverse windows a case is evaluated at, narrowest first; the last is the
# library's default, so a case that needs it computes exactly what a single
# evaluation would.
WINDOWS = (2, 4, INVERT_TERMS)


def _run(pools, names, evaluate, shape, q, seed):
    """Sample one generic point for `shape` and evaluate both sides there.

    `evaluate(kern, *side, *sets)` gets the shape's side, if it has one, but
    not its cardinalities; it returns (lhs, rhs) or (lhs, rhs, ok), and with
    no ok flag the sides are compared exactly.  The point is evaluated at each
    of `WINDOWS` in turn, on a fresh `Kernel`, and the first attempt that
    passes is kept, the last whatever it gives.  A narrower attempt that raises
    `WindowError` or fails moves on: a truncated zero bounds a valuation only
    up to its window.  Any other exception does not depend on the window; it
    carries the sampled point as `params`.
    """
    sets, q = sample_generic(pools(*shape), seed, q)
    side = tuple(v for v in shape[:1] if v in SIDES)
    params = {"q": scalar_format(q)}
    for name, vals in zip(names, sets):
        params[name] = [scalar_format(v) for v in vals]
    for terms in WINDOWS:
        last = terms == WINDOWS[-1]
        try:
            with invert_window(terms):
                lhs, rhs, *ok = evaluate(Kernel(q), *side, *sets)
                ok = ok[0] if ok else None
                if last or (_eq(lhs, rhs) if ok is None else ok):
                    return lhs, rhs, ok, params
        except Exception as exc:
            if last or not isinstance(exc, WindowError):
                exc.params = params
                raise


def _identity(identity_id, suite, shapes, pools, names, evaluate):
    def run(shape, q, seed):
        return _run(pools, names, evaluate, shape, q, seed)

    return IdentityDescriptor(identity_id, suite, shapes, run)


def _render(v):
    if isinstance(v, (list, tuple)):
        return [_render(x) for x in v]
    if isinstance(v, bool) or isinstance(v, int):
        return v
    if isinstance(v, LaurentSeries):
        return repr(v)
    return scalar_format(v)


def _eq(lhs, rhs):
    if isinstance(lhs, (list, tuple)) and isinstance(rhs, (list, tuple)):
        return len(lhs) == len(rhs) and all(_eq(a, b) for a, b in zip(lhs, rhs))
    return lhs == rhs


def _bounded(vals, bounds):
    """A valuation check: each value must reach its lower bound."""
    return vals, bounds, all(v >= n for v, n in zip(vals, bounds))


# ---------------------------------------------------------------------------
# Shape generators
# ---------------------------------------------------------------------------


def _shapes_sk(kmin=1, shift=0):
    """(side, k) for kmin <= k <= max(a_max, b_max) + shift."""
    return lambda a_max, b_max: [
        (side, k) for side in SIDES for k in range(kmin, max(a_max, b_max) + shift + 1)
    ]


def _shapes_ab(amin=0, bmin=0, keep=None):
    """(side, a, b) for amin <= a <= a_max, bmin <= b <= b_max, filtered by keep."""
    return lambda a_max, b_max: [
        (side, a, b)
        for side in SIDES
        for a in range(amin, a_max + 1)
        for b in range(bmin, b_max + 1)
        if keep is None or keep(a, b)
    ]


def _shapes_abn(keep=None):
    """(side, a, b, n) with n in {1, 2} collapsing variables, filtered by keep."""
    return lambda a_max, b_max: [
        (side, a, b, n)
        for side in SIDES
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        for n in range(1, 3)
        if keep is None or keep(a, b, n)
    ]


def _shapes_lemma(a_max, b_max):
    kmax = max(a_max, b_max)
    return [
        (side, m1, m2)
        for side in SIDES
        for m1 in range(kmax + 1)
        for m2 in range(kmax + 1)
        if 1 <= m1 + m2 <= kmax + 1
    ]


def _shapes_mult_pole(a_max, b_max):
    nmax = max(a_max, b_max)
    return [
        (side, n, m)
        for side in SIDES
        for n in range(nmax + 1)
        for m in range(min(2, nmax) + 1)
        if n + m >= 1
    ]


def _shapes_prop51(a_max, b_max):
    return [
        (side, a, b, p, n)
        for side in SIDES
        for a in range(a_max + 1)
        for b in range(b_max + 1)
        for p in range(b + 1)
        for n in range(3)
    ]


def _shapes_scalar(a_max, b_max):
    return [(a, b) for a in range(a_max + 1) for b in range(b_max + 1)]


# ---------------------------------------------------------------------------
# Evaluators that do more than call one library function
# ---------------------------------------------------------------------------


def _k_red(kern, side, xs, ys, zs):
    form1 = izergin_side(kern, side, xs + kern.shift(zs, -2), ys + zs)
    form2 = izergin_side(kern, side, xs + zs, ys + kern.shift(zs, 2))
    expected = -(kern.q if kern.usign(side) < 0 else kern.qinv) * izergin_side(kern, side, xs, ys)
    return [form1, form2], [expected, expected]


def _k_invers(kern, side, xs, ys):
    lhs = izergin_side(kern, side, kern.shift(xs, -2), ys)
    rhs = kern.mq(-kern.usign(side) * len(xs)) / kern.fprod(ys, xs) * izergin_side(
        kern, kern.other(side), ys, xs
    )
    return lhs, rhs


def _k_res(kern, side, xs, ys, zs):
    z = zs[0]
    zp = z + eps()
    lhs = izergin_side(kern, side, xs + (z,), ys + (zp,))
    rhs = (
        kern.f(z, zp)
        * kern.fprod((z,), ys)
        * kern.fprod(xs, (z,))
        * izergin_side(kern, side, xs, ys)
    )
    return singular_coeff(lhs), singular_coeff(rhs)


def _k_inf(kern, side, xs, ys):
    """K^(l) decays as y -> infinity and K^(r) as x -> infinity."""
    big = eps().invert()
    vals = [decay_valuation(izergin_side(kern, side, (big,) + xs[1:], ys)),
            decay_valuation(izergin_side(kern, side, xs, (big,) + ys[1:]))]
    return _bounded(vals, [int(side == "r"), int(side == "l")])


def _lemma(kern, side, gamma, alpha, beta):
    lhs, rhs1, rhs2 = lemma_partition_sum(kern, side, gamma, alpha, beta)
    return [lhs, lhs], [rhs1, rhs2]


def _rep_agree(kern, side, ts, xs, ss, ys):
    vals = [hc(kern, side, ts, xs, ss, ys, rep) for rep in REPRESENTATIONS]
    return vals, [vals[0]] * len(vals)


def _z_inf(kern, side, ts, xs, ss, ys):
    """Z^(l) decays as t or s -> infinity and Z^(r) as x or y -> infinity."""
    slots = [slot for slot, vals in zip("txsy", (ts, xs, ss, ys)) if vals]
    decaying = ("t", "s") if side == "l" else ("x", "y")
    vals = [hc_infinity_valuation(kern, side, ts, xs, ss, ys, slot) for slot in slots]
    return _bounded(vals, [int(slot in decaying) for slot in slots])


def _z_zero(kern, side, ts, xs, ss, ys):
    if side == "l":
        return hc(kern, side, ts, xs, ss, (Rat(0),) + ys[1:]), Rat(0)
    return hc(kern, side, (Rat(0),) + ts[1:], xs, ss, ys), Rat(0)


def _z_triv(kern, side, ts, xs, ss, ys):
    lhs = [hc(kern, side, ts, xs, (), ()), hc(kern, side, (), (), ss, ys),
           hc(kern, side, (), (), (), ())]
    return lhs, [izergin_side(kern, side, xs, ts), izergin_side(kern, side, ys, ss), Rat(1)]


def _run_sym_perm(shape, q, seed):
    """Z is symmetric within each of its four sets; the shuffles use the case seed."""

    def evaluate(kern, side, ts, xs, ss, ys):
        rng = random.Random(seed ^ 0x5F5F)  # anew per attempt: every window shuffles alike

        def perm(vals):
            return tuple(rng.sample(vals, len(vals)))

        lhs = hc(kern, side, perm(ts), perm(xs), perm(ss), perm(ys))
        return lhs, hc(kern, side, ts, xs, ss, ys)

    return _run(_core, _TXSY, evaluate, shape, q, seed)


def _scal_res(which):
    """The two extreme coefficients of the scalar product are Z^(r) and Z^(l)."""

    def evaluate(kern, uC, uB, vC, vB):
        a, b = len(uC), len(vC)
        poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
        ff = kern.fprod(vC, uC) * kern.fprod(vB, uB)
        if which == 1:
            mono = monomial([("uB", i) for i in range(a)], [("vC", j) for j in range(b)])
            z = hc(kern, "r", uB, uC, vB, vC)
        else:
            mono = monomial([("uC", i) for i in range(a)], [("vB", j) for j in range(b)])
            z = hc(kern, "l", uC, uB, vC, vB)
        return extract_coefficient(poly, mono), z / ff

    return evaluate


def _scal_multilinear(kern, uC, uB, vC, vB):
    """Every monomial of the scalar product has a + b distinct symbols.

    Returns the number of monomials that do not, which must be 0.
    """
    poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
    return sum(1 for mono in poly if len(mono) != len(uC) + len(vC)), 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# Set names and pool cardinalities shared by many rows.
_XY, _TXSY, _UV = ("x", "y"), ("t", "x", "s", "y"), ("uC", "uB", "vC", "vB")
_kk = lambda side, k: (k, k)
_kk1 = lambda side, k: (k, k, 1)
_core = lambda side, a, b: (a, a, b, b)
_uv = lambda a, b: (a, a, b, b)


def registry():
    # Z_INVERS and Z_INVERS1 sample an alpha they do not use: it is part of
    # their replay data.  The n z's of NONTRIV2, NONTRIV22, DEC1 and DEC2 fill
    # up the t and s (or x and y) sets, so those pools are n short.
    sym, sym_sets = lambda side, a, b: (a, a, b, b, 1), _TXSY + ("alpha",)
    abn, abn_sets = lambda side, a, b, n: (a, a, b, b, n), _TXSY + ("z",)
    n_le_ab = _shapes_abn(lambda a, b, n: n <= a and n <= b)
    fewer_ts = lambda side, a, b, n: (a - n, a, b - n, b, n)
    fewer_xy = lambda side, a, b, n: (a, a - n, b, b - n, n)
    a_le_b = _shapes_ab(amin=1, keep=lambda a, b: a <= b)
    b_le_a = _shapes_ab(bmin=1, keep=lambda a, b: b <= a)
    twin_ts = _shapes_ab(amin=1, keep=lambda a, b: b <= a)
    twin_ys = _shapes_ab(bmin=1, keep=lambda a, b: a <= b)
    twin_ts_pools, twin_ts_sets = lambda side, a, b: (a, b, b, a - b), ("t", "s", "y", "xi")
    twin_ys_pools, twin_ys_sets = lambda side, a, b: (a, a, b, b - a), ("t", "x", "y", "xi")
    return [
        _identity("K_INIT", "izergin", lambda a, b: [(s, 1) for s in SIDES], _kk, _XY,
                  lambda kern, side, xs, ys: (
                      izergin_side(kern, side, xs, ys),
                      (xs if side == "l" else ys)[0] * kern.g(xs[0], ys[0]))),
        _identity("K_SCAL", "izergin", _shapes_sk(), _kk1, _XY + ("alpha",),
                  lambda kern, side, xs, ys, al: (
                      izergin_side(kern, side, tuple(al[0] * v for v in xs),
                                   tuple(al[0] * v for v in ys)),
                      izergin_side(kern, side, xs, ys))),
        _identity("K_RED", "izergin", _shapes_sk(kmin=0, shift=-1), _kk1, _XY + ("z",), _k_red),
        _identity("K_INVERS", "izergin", _shapes_sk(), _kk, _XY, _k_invers),
        _identity("K_INVERS1", "izergin", _shapes_sk(), _kk, _XY,
                  lambda kern, side, xs, ys: (
                      izergin_side(kern.inverted(), side, xs, ys),
                      izergin_side(kern, kern.other(side), ys, xs))),
        _identity("K_RES", "izergin", _shapes_sk(kmin=0), _kk1, _XY + ("z",), _k_res),
        _identity("K_INF", "izergin", _shapes_sk(), _kk, _XY, _k_inf),
        _identity("LEMMA_SUM", "izergin", _shapes_lemma,
                  lambda side, m1, m2: (m1 + m2, m1, m2), ("gamma", "alpha", "beta"),
                  _lemma),
        _identity("MULT_POLE", "izergin", _shapes_mult_pole,
                  lambda side, n, m: (n, n, m), _XY + ("z",), mult_pole_limit),
        _identity("HC_REP_AGREE", "hc-reps", _shapes_ab(), _core, _TXSY, _rep_agree),
        _identity("DIFF_11", "hc-reps", lambda a, b: [()], lambda: (1, 1, 1, 1), _TXSY,
                  lambda kern, *sets: hc_difference_11(kern, *(v[0] for v in sets))),
        _identity("Z_INF", "hc-reps", _shapes_ab(1, 1), _core, _TXSY, _z_inf),
        _identity("Z_ZERO_VANISH", "hc-reps", _shapes_ab(1, 1), _core, _TXSY, _z_zero),
        IdentityDescriptor("HC_SYM_PERM", "symmetries", _shapes_ab(), _run_sym_perm),
        _identity("Z_TRIV", "symmetries", _shapes_ab(), _core, _TXSY, _z_triv),
        _identity("Z_SCAL", "symmetries", _shapes_ab(), sym, sym_sets,
                  lambda kern, side, ts, xs, ss, ys, al: hc_z_scal_pair(
                      kern, side, ts, xs, ss, ys, al[0])),
        _identity("Z_INVERS", "symmetries", _shapes_ab(), sym, sym_sets,
                  lambda kern, side, *sets: hc_z_invers_pair(kern, side, *sets[:4])),
        _identity("Z_INVERS1", "symmetries", _shapes_ab(), sym, sym_sets,
                  lambda kern, side, *sets: hc_z_invers1_pair(kern, side, *sets[:4])),
        _identity("REC_Z_TRIV1", "residues", _shapes_ab(0, 1), _core, _TXSY,
                  hc_rec_z_triv1_pair),
        _identity("REC_Z_TRIV2", "residues", _shapes_ab(1, 0), _core, _TXSY,
                  hc_rec_z_triv2_pair),
        _identity("REC_Z_NONTRIV", "residues", _shapes_ab(1, 1), _core, _TXSY,
                  hc_rec_z_nontriv_pair),
        _identity("REC_Z_NONTRIV_D", "residues", _shapes_ab(1, 1), _core, _TXSY,
                  hc_rec_z_nontriv_d_pair),
        _identity("RED1", "residues", _shapes_abn(), abn, abn_sets, hc_red1_pair),
        _identity("RED2", "residues", _shapes_abn(), abn, abn_sets, hc_red2_pair),
        _identity("NONTRIV2", "residues", n_le_ab, fewer_ts, abn_sets, hc_nontriv2_pair),
        _identity("NONTRIV22", "residues", n_le_ab, fewer_xy, abn_sets, hc_nontriv22_pair),
        _identity("DEC1", "reductions", n_le_ab, fewer_xy, abn_sets, hc_dec1_pair),
        _identity("DEC2", "reductions", n_le_ab, fewer_ts, abn_sets, hc_dec2_pair),
        _identity("DEC1_PC", "reductions", a_le_b, lambda side, a, b: (a, b, b - a, a),
                  ("t", "s", "y", "z"), hc_dec1_pc_pair),
        _identity("DEC2_PC", "reductions", b_le_a, lambda side, a, b: (a - b, a, b, b),
                  ("t", "x", "y", "z"), hc_dec2_pc_pair),
        _identity("TWIN_1", "twins", twin_ts, twin_ts_pools, twin_ts_sets, hc_twin_1_pair),
        _identity("TWIN_2", "twins", twin_ts, twin_ts_pools, twin_ts_sets, hc_twin_2_pair),
        _identity("TWIN_3", "twins", twin_ys, twin_ys_pools, twin_ys_sets, hc_twin_3_pair),
        _identity("TWIN_4", "twins", twin_ys, twin_ys_pools, twin_ys_sets, hc_twin_4_pair),
        _identity("PROP_5_1", "prop51", _shapes_prop51,
                  lambda side, a, b, p, n: (a, a, b, p, b - p, n), _TXSY + ("w", "z"),
                  hc_prop51_pair),
        _identity("W_CORNER_L", "scalar", _shapes_scalar, _uv, _UV,
                  lambda kern, uC, uB, vC, vB: (
                      w_part(kern, [((), uC)], [((), uB)], [(vC, ())], [(vB, ())])[0],
                      hc(kern, "l", uC, uB, vC, vB))),
        _identity("W_CORNER_R", "scalar", _shapes_scalar, _uv, _UV,
                  lambda kern, uC, uB, vC, vB: (
                      w_part(kern, [(uC, ())], [(uB, ())], [((), vC)], [((), vB)])[0],
                      hc(kern, "r", uB, uC, vB, vC))),
        _identity("SCAL_RES1", "scalar", _shapes_scalar, _uv, _UV, _scal_res(1)),
        _identity("SCAL_RES2", "scalar", _shapes_scalar, _uv, _UV, _scal_res(2)),
        _identity("SCAL_MULTILINEAR", "scalar", _shapes_scalar, _uv, _UV, _scal_multilinear),
    ]


def run_suite(suite, a_max=2, b_max=2, trials=5, seed=0, q=None):
    """Run every applicable identity over its shapes and seeded trials.

    Each case samples its point from its own seed; a given ``q`` is used at
    every point instead of a sampled one.  A case that raises is recorded as
    an error, with the exception's type and message and the sampled point, and
    the sweep goes on.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    for name, value in (("a_max", a_max), ("b_max", b_max), ("trials", trials)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, got {value}")
    if q is not None:
        Kernel(q)  # rejects an inadmissible q before any case is sampled
    cases = []
    npass = nfail = nerror = 0
    for desc in registry():
        if suite != "all" and desc.suite != suite:
            continue
        for shape in desc.shapes(a_max, b_max):
            for trial in range(trials):
                case_seed = _case_seed(seed, desc.identity_id, shape, trial)
                t0 = time.monotonic()
                error = None
                lhs = rhs = None
                params = {}
                ok = False
                try:
                    lhs, rhs, ok_flag, params = desc.run(shape, q, case_seed)
                    ok = _eq(lhs, rhs) if ok_flag is None else ok_flag
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    params = getattr(exc, "params", params)
                elapsed = int((time.monotonic() - t0) * 1000)
                cases.append(
                    {
                        "identity_id": desc.identity_id,
                        "shape": list(shape),
                        "seed": case_seed,
                        "params": params,
                        "lhs": None if lhs is None else _render(lhs),
                        "rhs": None if rhs is None else _render(rhs),
                        "equal": bool(ok) if error is None else False,
                        "error": error,
                        "elapsed_ms": elapsed,
                    }
                )
                if error is not None:
                    nerror += 1
                elif ok:
                    npass += 1
                else:
                    nfail += 1
    return {
        "suite": suite,
        "config": {
            "a_max": a_max,
            "b_max": b_max,
            "trials": trials,
            "seed": seed,
            "q": None if q is None else scalar_format(Rat(q)),
            "max_abs": MAX_ABS,
        },
        "cases": cases,
        "summary": {"pass": npass, "fail": nfail, "error": nerror},
    }
