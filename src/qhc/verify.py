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
    REPRESENTATIONS, decay_valuation, hc, hc_difference_11, hc_infinity_valuation,
    hc_multiple_limit_pair, hc_prop51_pair, hc_reduction_pair, hc_residue_pair,
    hc_symmetry_pair, hc_twin_sum_pair, singular_coeff,
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

    `evaluate(kern, *shape, *sets)` returns (lhs, rhs) or (lhs, rhs, ok); with
    no ok flag the sides are compared exactly.  The point is evaluated at each
    of `WINDOWS` in turn, on a fresh `Kernel`, and the first attempt that
    passes is kept, the last whatever it gives.  A narrower attempt that raises
    `WindowError` or fails moves on: a truncated zero bounds a valuation only
    up to its window.  Any other exception does not depend on the window; it
    carries the sampled point as `params`.
    """
    sets, q = sample_generic(pools(*shape), seed, q)
    params = {"q": scalar_format(q)}
    for name, vals in zip(names, sets):
        params[name] = [scalar_format(v) for v in vals]
    for terms in WINDOWS:
        last = terms == WINDOWS[-1]
        try:
            with invert_window(terms):
                lhs, rhs, *ok = evaluate(Kernel(q), *shape, *sets)
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


def _k_red(kern, side, k, xs, ys, zs):
    form1 = izergin_side(kern, side, xs + kern.shift(zs, -2), ys + zs)
    form2 = izergin_side(kern, side, xs + zs, ys + kern.shift(zs, 2))
    expected = -(kern.q if kern.usign(side) < 0 else kern.qinv) * izergin_side(kern, side, xs, ys)
    return [form1, form2], [expected, expected]


def _k_invers(kern, side, k, xs, ys):
    lhs = izergin_side(kern, side, kern.shift(xs, -2), ys)
    rhs = kern.mq(-kern.usign(side) * k) / kern.fprod(ys, xs) * izergin_side(
        kern, kern.other(side), ys, xs
    )
    return lhs, rhs


def _k_res(kern, side, k, xs, ys, zs):
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


def _k_inf(kern, side, k, xs, ys):
    """K^(l) decays as y -> infinity and K^(r) as x -> infinity."""
    big = eps().invert()
    vals = [decay_valuation(izergin_side(kern, side, (big,) + xs[1:], ys)),
            decay_valuation(izergin_side(kern, side, xs, (big,) + ys[1:]))]
    return _bounded(vals, [int(side == "r"), int(side == "l")])


def _lemma(kern, side, m1, m2, gamma, alpha, beta):
    lhs, rhs1, rhs2 = lemma_partition_sum(kern, side, gamma, alpha, beta)
    return [lhs, lhs], [rhs1, rhs2]


def _rep_agree(kern, side, a, b, ts, xs, ss, ys):
    vals = [hc(kern, side, ts, xs, ss, ys, rep) for rep in REPRESENTATIONS]
    return vals, [vals[0]] * len(vals), all(v == vals[0] for v in vals)


def _z_inf(kern, side, a, b, ts, xs, ss, ys):
    """Z^(l) decays as t or s -> infinity and Z^(r) as x or y -> infinity."""
    slots = [slot for slot, n in zip("txsy", (a, a, b, b)) if n]
    decaying = ("t", "s") if side == "l" else ("x", "y")
    vals = [hc_infinity_valuation(kern, side, ts, xs, ss, ys, slot) for slot in slots]
    return _bounded(vals, [int(slot in decaying) for slot in slots])


def _z_zero(kern, side, a, b, ts, xs, ss, ys):
    if side == "l":
        return hc(kern, side, ts, xs, ss, (Rat(0),) + ys[1:]), Rat(0)
    return hc(kern, side, (Rat(0),) + ts[1:], xs, ss, ys), Rat(0)


def _z_triv(kern, side, a, b, ts, xs, ss, ys):
    lhs = [hc(kern, side, ts, xs, (), ()), hc(kern, side, (), (), ss, ys),
           hc(kern, side, (), (), (), ())]
    return lhs, [izergin_side(kern, side, xs, ts), izergin_side(kern, side, ys, ss), Rat(1)]


def _run_sym_perm(shape, q, seed):
    """Z is symmetric within each of its four sets; the shuffles use the case seed."""

    def evaluate(kern, side, a, b, ts, xs, ss, ys):
        rng = random.Random(seed ^ 0x5F5F)  # anew per attempt: every window shuffles alike

        def perm(vals):
            return tuple(rng.sample(vals, len(vals)))

        lhs = hc(kern, side, perm(ts), perm(xs), perm(ss), perm(ys))
        return lhs, hc(kern, side, ts, xs, ss, ys)

    return _run(_core, _TXSY, evaluate, shape, q, seed)


def _limit_pair(variant):
    return lambda kern, side, a, b, n, *sets: hc_multiple_limit_pair(
        variant, kern, side, *sets)


def _reduction_pair(variant):
    return lambda kern, side, a, b, n, *sets: hc_reduction_pair(variant, kern, side, *sets)


def _scal_res(which):
    """The two extreme coefficients of the scalar product are Z^(r) and Z^(l)."""

    def evaluate(kern, a, b, uC, uB, vC, vB):
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


def _scal_multilinear(kern, a, b, uC, uB, vC, vB):
    """No monomial of the scalar product repeats a symbol."""
    poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
    return sum(len(mono) - len(set(mono)) for mono in poly), 0


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
    descs = [
        _identity("K_INIT", "izergin", lambda a, b: [(s, 1) for s in SIDES], _kk, _XY,
                  lambda kern, side, k, xs, ys: (
                      izergin_side(kern, side, xs, ys),
                      (xs if side == "l" else ys)[0] * kern.g(xs[0], ys[0]))),
        _identity("K_SCAL", "izergin", _shapes_sk(), _kk1, _XY + ("alpha",),
                  lambda kern, side, k, xs, ys, al: (
                      izergin_side(kern, side, tuple(al[0] * v for v in xs),
                                   tuple(al[0] * v for v in ys)),
                      izergin_side(kern, side, xs, ys))),
        _identity("K_RED", "izergin", _shapes_sk(kmin=0, shift=-1), _kk1, _XY + ("z",), _k_red),
        _identity("K_INVERS", "izergin", _shapes_sk(), _kk, _XY, _k_invers),
        _identity("K_INVERS1", "izergin", _shapes_sk(), _kk, _XY,
                  lambda kern, side, k, xs, ys: (
                      izergin_side(kern.inverted(), side, xs, ys),
                      izergin_side(kern, kern.other(side), ys, xs))),
        _identity("K_RES", "izergin", _shapes_sk(kmin=0), _kk1, _XY + ("z",), _k_res),
        _identity("K_INF", "izergin", _shapes_sk(), _kk, _XY, _k_inf),
        _identity("LEMMA_SUM", "izergin", _shapes_lemma,
                  lambda side, m1, m2: (m1 + m2, m1, m2), ("gamma", "alpha", "beta"),
                  _lemma),
        _identity("MULT_POLE", "izergin", _shapes_mult_pole,
                  lambda side, n, m: (n, n, m), _XY + ("z",),
                  lambda kern, side, n, m, *sets: mult_pole_limit(kern, side, *sets)),
        _identity("HC_REP_AGREE", "hc-reps", _shapes_ab(), _core, _TXSY, _rep_agree),
        _identity("DIFF_11", "hc-reps", lambda a, b: [()], lambda: (1, 1, 1, 1), _TXSY,
                  lambda kern, *sets: hc_difference_11(kern, *(v[0] for v in sets))),
        _identity("Z_INF", "hc-reps", _shapes_ab(1, 1), _core, _TXSY, _z_inf),
        _identity("Z_ZERO_VANISH", "hc-reps", _shapes_ab(1, 1), _core, _TXSY, _z_zero),
        IdentityDescriptor("HC_SYM_PERM", "symmetries", _shapes_ab(), _run_sym_perm),
        _identity("Z_TRIV", "symmetries", _shapes_ab(), _core, _TXSY, _z_triv),
    ]
    for v in ("Z_SCAL", "Z_INVERS", "Z_INVERS1"):
        descs.append(_identity(
            v, "symmetries", _shapes_ab(), lambda side, a, b: (a, a, b, b, 1),
            _TXSY + ("alpha",),
            lambda kern, side, a, b, ts, xs, ss, ys, al, v=v: hc_symmetry_pair(
                v, kern, side, ts, xs, ss, ys, alpha=al[0] if v == "Z_SCAL" else None)))
    for ident, v, amin, bmin in (("REC_Z_TRIV1", "S_TO_Y", 0, 1),
                                 ("REC_Z_TRIV2", "T_TO_X", 1, 0),
                                 ("REC_Z_NONTRIV", "S_TO_T", 1, 1),
                                 ("REC_Z_NONTRIV_D", "Y_TO_X", 1, 1)):
        descs.append(_identity(
            ident, "residues", _shapes_ab(amin, bmin), _core, _TXSY,
            lambda kern, side, a, b, *sets, v=v: hc_residue_pair(v, kern, side, *sets)))
    for v in ("RED1", "RED2"):
        descs.append(_identity(v, "residues", _shapes_abn(),
                               lambda side, a, b, n: (a, a, b, b, n), _TXSY + ("z",),
                               _limit_pair(v)))
    # The n z's fill up the t and s (or x and y) sets, so those pools are n short.
    fewer_ts = lambda side, a, b, n: (a - n, a, b - n, b, n)
    fewer_xy = lambda side, a, b, n: (a, a - n, b, b - n, n)
    for v, suite, pools, pair in (("NONTRIV2", "residues", fewer_ts, _limit_pair),
                                  ("NONTRIV22", "residues", fewer_xy, _limit_pair),
                                  ("DEC1", "reductions", fewer_xy, _reduction_pair),
                                  ("DEC2", "reductions", fewer_ts, _reduction_pair)):
        descs.append(_identity(v, suite, _shapes_abn(lambda a, b, n: n <= a and n <= b),
                               pools, _TXSY + ("z",), pair(v)))
    a_le_b = _shapes_ab(amin=1, keep=lambda a, b: a <= b)
    b_le_a = _shapes_ab(bmin=1, keep=lambda a, b: b <= a)
    descs += [
        _identity("DEC1_PC", "reductions", a_le_b, lambda side, a, b: (a, b, b - a, a),
                  ("t", "s", "y", "z"),
                  lambda kern, side, a, b, ts, ss, ys, zs: hc_reduction_pair(
                      "DEC1_PC", kern, side, ts, (), ss, ys, zs)),
        _identity("DEC2_PC", "reductions", b_le_a, lambda side, a, b: (a - b, a, b, b),
                  ("t", "x", "y", "z"),
                  lambda kern, side, a, b, ts, xs, ys, zs: hc_reduction_pair(
                      "DEC2_PC", kern, side, ts, xs, (), ys, zs)),
    ]
    for v in (1, 2):
        descs.append(_identity(
            f"TWIN_{v}", "twins", _shapes_ab(amin=1, keep=lambda a, b: b <= a),
            lambda side, a, b: (a, b, b, a - b), ("t", "s", "y", "xi"),
            lambda kern, side, a, b, ts, ss, ys, xi, v=v: hc_twin_sum_pair(
                v, kern, side, ts, (), ss, ys, xi)))
    for v in (3, 4):
        descs.append(_identity(
            f"TWIN_{v}", "twins", _shapes_ab(bmin=1, keep=lambda a, b: a <= b),
            lambda side, a, b: (a, a, b, b - a), ("t", "x", "y", "xi"),
            lambda kern, side, a, b, ts, xs, ys, xi, v=v: hc_twin_sum_pair(
                v, kern, side, ts, xs, (), ys, xi)))
    descs += [
        _identity("PROP_5_1", "prop51", _shapes_prop51,
                  lambda side, a, b, p, n: (a, a, b, p, b - p, n), _TXSY + ("w", "z"),
                  lambda kern, side, a, b, p, n, *sets: hc_prop51_pair(kern, side, *sets)),
        _identity("W_CORNER_L", "scalar", _shapes_scalar, _uv, _UV,
                  lambda kern, a, b, uC, uB, vC, vB: (
                      w_part(kern, ((), uC), ((), uB), (vC, ()), (vB, ())),
                      hc(kern, "l", uC, uB, vC, vB))),
        _identity("W_CORNER_R", "scalar", _shapes_scalar, _uv, _UV,
                  lambda kern, a, b, uC, uB, vC, vB: (
                      w_part(kern, (uC, ()), (uB, ()), ((), vC), ((), vB)),
                      hc(kern, "r", uB, uC, vB, vC))),
        _identity("SCAL_RES1", "scalar", _shapes_scalar, _uv, _UV, _scal_res(1)),
        _identity("SCAL_RES2", "scalar", _shapes_scalar, _uv, _UV, _scal_res(2)),
        _identity("SCAL_MULTILINEAR", "scalar", _shapes_scalar, _uv, _UV, _scal_multilinear),
    ]
    return descs


def run_suite(suite, a_max=2, b_max=2, trials=5, seed=0, q=None):
    """Run every applicable identity over its shapes and seeded trials.

    Each case samples its point from its own seed; a given ``q`` is used at
    every point instead of a sampled one.  A case that raises is recorded as
    an error, with the exception's type and message and the sampled point, and
    the sweep goes on.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if q is not None and Rat(q) in (Rat(0), Rat(1), Rat(-1)):
        raise ValueError("q must not be 0, 1, or -1")
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
