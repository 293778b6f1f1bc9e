"""Highest-coefficient representations, symmetries, and recursions."""

import itertools
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhc.highest
from qhc.exactnum import INVERT_TERMS, LaurentSeries, PoleError, Rat, _ratio, eps, invert_window
from qhc.highest import (
    REPRESENTATIONS,
    _ws_cells,
    hc,
    hc_closed_11,
    hc_dec1_pair,
    hc_dec1_pc_pair,
    hc_dec2_pair,
    hc_dec2_pc_pair,
    hc_difference_11,
    hc_infinity_valuation,
    hc_nontriv2_pair,
    hc_prop51_pair,
    hc_rec_z_nontriv_d_pair,
    hc_rec_z_nontriv_pair,
    hc_rec_z_triv1_pair,
    hc_rec_z_triv2_pair,
    hc_red1_pair,
    hc_red2_pair,
    hc_twin_1_pair,
    hc_twin_2_pair,
    hc_twin_3_pair,
    hc_twin_4_pair,
    hc_z_invers1_pair,
    hc_z_invers_pair,
    hc_z_scal_pair,
)
from qhc.izergin import Kernel, izergin_side
from qhc.params import is_generic, sample_generic
from qhc.partitions import enumerate_partitions


def closed_form_left(q, t, x, s, y):
    """Independent (1,1) closed form computed with Fraction arithmetic."""
    q, t, x, s, y = map(Fraction, (q, t, x, s, y))
    g = lambda u, v: (q - 1 / q) / (u - v)
    f = lambda u, v: (q * u - v / q) / (u - v)
    return x * y * g(x, t) * g(y, s) * f(s, x) + x * y * s * g(x, s) * g(s, t) * g(y, x)


def ws_terms(ref, side, ts, xs, ss, ys):
    """The terms of the ws formula in split order, each a Rat, f written out, without the sign."""
    q, a, b = ref.q, len(ts), len(ss)
    opp = "r" if side == "l" else "l"
    ws = tuple(ss) + tuple(xs)
    terms = []
    for picked in itertools.combinations(range(a + b), b):
        w1 = tuple(ws[i] for i in picked)
        w2 = tuple(w for i, w in enumerate(ws) if i not in picked)
        term = (izergin_side(ref, opp, ss, tuple(w * q ** 2 for w in w1))
                * izergin_side(ref, side, w2, ts)
                * izergin_side(ref, side, ys, w1))
        for u in w1:
            for v in w2:
                term *= (q * u - v / q) / (u - v)
        terms.append(term)
    return terms


def ws_term_sum(ref, side, ts, xs, ss, ys):
    """Z by the ws formula, one Rat term at a time in split order, f written out."""
    total = Rat(0)
    for term in ws_terms(ref, side, ts, xs, ss, ys):
        total += term
    return (-ref.q) ** (-len(ss) if side == "l" else len(ss)) * total


def ws_grid(kern, side, tss, xs, ss, yss):
    """The grid of `_ws_cells`, each cell divided by `_ratio`."""
    cells = _ws_cells(kern, side, [tuple(ts) for ts in tss], tuple(xs), tuple(ss),
                      [tuple(ys) for ys in yss])
    return [[_ratio(n, d) for n, d in row] for row in cells]


class TestSmallestCase:
    def test_frozen_value(self):
        kern = Kernel(Rat(2))
        got = hc(kern, "l", (Rat(2),), (Rat(3),), (Rat(5),), (Rat(7),))
        assert got == Rat(5481, 64)

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_all_reps_match_reference(self, rep):
        for seed in range(5):
            (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), seed)
            kern = Kernel(q)
            want = closed_form_left(q, ts[0], xs[0], ss[0], ys[0])
            got = hc(kern, "l", ts, xs, ss, ys, rep)
            assert got == Rat(want.numerator, want.denominator)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_closed_form_helper(self, side):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), 3)
        kern = Kernel(q)
        assert hc(kern, side, ts, xs, ss, ys) == hc_closed_11(
            kern, side, ts[0], xs[0], ss[0], ys[0]
        )

    @pytest.mark.parametrize("side", ["x", "L", ""])
    def test_closed_form_rejects_an_unknown_side_as_hc_does(self, side):
        kern = Kernel(Rat(2))
        args = (Rat(2), Rat(3), Rat(5), Rat(7))
        message = re.escape(f"side must be 'l' or 'r', got {side!r}")
        for rep in REPRESENTATIONS:
            with pytest.raises(ValueError, match=message):
                hc(kern, side, *((a,) for a in args), rep)
        with pytest.raises(ValueError, match=message):
            hc_closed_11(kern, side, *args)
        assert not kern.values  # rejected before any value is indexed

    @pytest.mark.parametrize("rep", ["bogus", "WS", ""])
    def test_an_unknown_rep_is_rejected(self, rep):
        kern = Kernel(Rat(2))
        message = re.escape(f"rep must be one of ws, ws-twin, ty, ty-twin, tx, sy, got {rep!r}")
        with pytest.raises(ValueError, match=message):
            hc(kern, "l", (Rat(2),), (Rat(3),), (Rat(5),), (Rat(7),), rep)

    def test_closed_form_rejects_a_float(self):
        with pytest.raises(TypeError, match=r"inexact value 7\.0 \(float\)"):
            hc_closed_11(Kernel(Rat(2)), "l", Rat(2), Rat(3), Rat(5), 7.0)

    def test_difference_identity(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), 4)
        lhs, rhs = hc_difference_11(Kernel(q), ts[0], xs[0], ss[0], ys[0])
        assert lhs == rhs


class TestRepresentationAgreement:
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
    def test_six_reps_agree(self, side, a, b):
        (ts, xs, ss, ys), q = sample_generic((a, a, b, b), 21)
        kern = Kernel(q)
        vals = [hc(kern, side, ts, xs, ss, ys, rep) for rep in REPRESENTATIONS]
        assert all(v == vals[0] for v in vals)


def ws_series_reference(kern, side, tss, xs, ss, yss):
    """The ws grid summed as values, in split order, with K^(l,r) from `izergin_side`.

    Each cell is the sign times the sum of (K^(o) K(w_II | ts) f(w_I, w_II))
    K(ys | w_I), added one term at a time from ``Rat(0)``.
    """
    u = 1 if side == "l" else -1
    opp = "r" if side == "l" else "l"
    b = len(ss)
    totals = [Rat(0)] * (len(tss) * len(yss))
    for w1, w2 in enumerate_partitions(ss + xs, b):
        k_o = izergin_side(kern, opp, ss, kern.shift(w1, 2))
        f12 = kern.fprod(w1, w2)
        k_ys = [izergin_side(kern, side, ys, w1) for ys in yss]
        c = 0
        for ts in tss:
            common = k_o * izergin_side(kern, side, w2, ts) * f12
            for k_y in k_ys:
                totals[c] = totals[c] + common * k_y
                c += 1
    sign = kern.mq(-u * b)
    width = len(yss)
    return [[sign * total for total in totals[i:i + width]]
            for i in range(0, len(totals), width)]


def fields(x):
    """Level, valuation, order and each coefficient's fields, or a scalar's type and value."""
    if isinstance(x, LaurentSeries):
        return ("series", x.level, x.valuation, x.order, tuple(fields(c) for c in x.coeffs))
    return (type(x), x)


def grid_outcome(fn, *args):
    """``fields`` of every cell of a grid, or the type and message of what it raises."""
    try:
        return [[fields(z) for z in row] for row in fn(*args)]
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestWsBatch:
    """The ws grid at one t set gives, per y set, what `hc` gives with each rep."""

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
    def test_each_set_of_the_batch_is_its_hc(self, side, a, b):
        (ts, xs, ss, *yss), q = sample_generic((a, a, b, b, b, b), 22)
        kern = Kernel(q)
        got = ws_grid(kern, side, [ts], xs, ss, yss)
        assert len(got) == 1 and len(got[0]) == 3
        for ys, z in zip(yss, got[0]):
            for rep in REPRESENTATIONS:
                assert z == hc(kern, side, ts, xs, ss, ys, rep), rep

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2)])
    def test_a_set_holding_a_series(self, side, a, b):
        (ts, xs, ss, ys), q = sample_generic((a, a, b, b), 23)
        kern = Kernel(q)
        moved = (ys[0] + eps(),) + ys[1:]
        (got,) = ws_grid(kern, side, [ts], xs, ss, [ys, moved])
        assert isinstance(got[1], LaurentSeries)
        for rep in REPRESENTATIONS:
            assert got[0] == hc(kern, side, ts, xs, ss, ys, rep), rep
            assert got[1] == hc(kern, side, ts, xs, ss, moved, rep), rep

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_a_rational_batch_is_the_sum_of_its_terms(self, side, a, b):
        # Every cell of a grid of two t sets by three y sets against the ws
        # formula summed term by term with K^(l,r) from a fresh kernel.
        (t1, t2, xs, ss, *yss), q = sample_generic((a, a, a, b, b, b, b), 26)
        got = ws_grid(Kernel(q), side, [t1, t2], xs, ss, yss)
        assert [len(row) for row in got] == [3, 3]
        for ts, row in zip((t1, t2), got):
            for ys, z in zip(yss, row):
                assert type(z) is Rat and z.denominator > 0
                assert gcd(z.numerator, z.denominator) == 1
                assert z == ws_term_sum(Kernel(q), side, ts, xs, ss, ys)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_terms_over_a_shared_denominator(self, side):
        # Every value is n/6, so the denominators of a cell's terms share
        # factors; each cell is still reduced and the sum of its terms.
        values = [Rat(n, 6) for n in (1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35)]
        q = Rat(3, 2)
        assert is_generic(values, q)
        t1, t2, xs, ss = values[0:2], values[2:4], values[4:6], values[6:8]
        yss = [values[8:10], values[10:12]]
        got = ws_grid(Kernel(q), side, [t1, t2], xs, ss, yss)
        for ts, row in zip((t1, t2), got):
            for ys, z in zip(yss, row):
                dens = [t.denominator for t in ws_terms(Kernel(q), side, ts, xs, ss, ys)]
                assert any(gcd(m, n) > 1 for m, n in itertools.combinations(dens, 2))
                assert type(z) is Rat and gcd(z.numerator, z.denominator) == 1
                assert z == ws_term_sum(Kernel(q), side, ts, xs, ss, ys)

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("met", ["s", "x"])
    def test_a_y_value_met_in_s_or_x_is_a_pole(self, side, met):
        (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), 27)
        value = Rat(ss[1] if met == "s" else xs[0])  # an equal value, another object
        with pytest.raises(PoleError):
            ws_grid(Kernel(q), side, [ts], xs, ss, [ys, (ys[0], value)])

    def test_cardinalities_are_checked_per_set(self):
        # hc checks #t = #x and #s = #y before any rep sums
        (ts, xs, ss, ys, y2), q = sample_generic((1, 1, 2, 2, 1), 25)
        for rep in REPRESENTATIONS:
            with pytest.raises(ValueError, match="cardinality mismatch"):
                hc(Kernel(q), "l", ts, xs, ss, y2, rep)
            with pytest.raises(ValueError, match="cardinality mismatch"):
                hc(Kernel(q), "l", ts, xs[:0], ss, ys, rep)


class TestWsGrid:
    """Cell [i][j] of the ws grid is Z(tss[i]; xs | ss; yss[j]) by every rep."""

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (2, 1),
                                     (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)])
    def test_each_cell_is_its_hc(self, side, a, b):
        (t1, t2, xs, ss, *yss), q = sample_generic((a, a, a, b, b, b, b), 28)
        kern = Kernel(q)
        got = ws_grid(kern, side, [t1, t2], xs, ss, yss)
        assert [len(row) for row in got] == [3, 3]
        for ts, row in zip((t1, t2), got):
            for ys, z in zip(yss, row):
                assert type(z) is Rat
                for rep in REPRESENTATIONS:
                    assert z == hc(kern, side, ts, xs, ss, ys, rep), rep

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_a_t_set_holding_a_series(self, side, a, b):
        # One series t value makes its row of cells series; the other row
        # stays one Rat per cell.
        (t1, xs, ss, y1, y2), q = sample_generic((a, a, b, b, b), 29)
        kern = Kernel(q)
        moved = (t1[0] + eps(),) + t1[1:]
        got = ws_grid(kern, side, [t1, moved], xs, ss, [y1, y2])
        assert all(type(z) is Rat for z in got[0])
        assert all(isinstance(z, LaurentSeries) for z in got[1])
        for ts, row in zip((t1, moved), got):
            for ys, z in zip((y1, y2), row):
                for rep in REPRESENTATIONS:
                    assert z == hc(kern, side, ts, xs, ss, ys, rep), rep

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(4) for b in range(1, 4)])
    @pytest.mark.parametrize("window", [None, 2])
    def test_residue_grids_match_the_series_reference(self, side, a, b, window):
        # Grids at the residue points s_b = y_b + eps and s_b = t_a + eps,
        # level-1 and nested (+ eps_2), against the grid summed as values:
        # every cell keeps the reference's fields, so no window narrows.
        (t1, t2, xs, ss, y1, y2), q = sample_generic((a, a, a, b, b, b), 31 + a + 4 * b)
        meets = [y1[-1]] + ([t1[-1]] if a else [])
        with invert_window(INVERT_TERMS if window is None else window):
            for met in meets:
                for sb in (met + eps(), met + eps() + eps(level=2)):
                    moved = ss[:-1] + (sb,)
                    args = (side, [t1, t2], xs, moved, [y1, y2])
                    got = grid_outcome(ws_grid, Kernel(q), *args)
                    assert got == grid_outcome(ws_series_reference, Kernel(q), *args)
                    assert all(cell[0] == "series" for cell in got[0])  # decided, and series


class TestBoundaries:
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_pure_first_kind_is_izergin(self, side):
        (ts, xs), q = sample_generic((2, 2), 6)
        kern = Kernel(q)
        assert hc(kern, side, ts, xs, (), ()) == izergin_side(kern, side, xs, ts)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_pure_third_kind_is_izergin(self, side):
        (ss, ys), q = sample_generic((2, 2), 7)
        kern = Kernel(q)
        assert hc(kern, side, (), (), ss, ys) == izergin_side(kern, side, ys, ss)

    def test_empty_is_one(self):
        assert hc(Kernel(Rat(2)), "l", (), (), (), ()) == Rat(1)

    def test_left_vanishes_at_zero_y(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), 8)
        kern = Kernel(q)
        assert hc(kern, "l", ts, xs, ss, (Rat(0),)) == Rat(0)

    def test_right_vanishes_at_zero_t(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), 8)
        kern = Kernel(q)
        assert hc(kern, "r", (Rat(0),), xs, ss, ys) == Rat(0)


class TestSymmetries:
    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, seed):
        (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), seed)
        kern = Kernel(q)
        assert hc(kern, "l", ts, xs, ss, ys) == hc(
            kern, "l", ts[::-1], xs, ss, ys[::-1]
        )

    @pytest.mark.parametrize("pair", [
        pytest.param(hc_z_scal_pair, id="Z_SCAL"),
        pytest.param(hc_z_invers_pair, id="Z_INVERS"),
        pytest.param(hc_z_invers1_pair, id="Z_INVERS1"),
    ])
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_symmetry_pairs(self, pair, side):
        (ts, xs, ss, ys, al), q = sample_generic((2, 2, 1, 1, 1), 31)
        alpha = al if pair is hc_z_scal_pair else ()
        lhs, rhs = pair(Kernel(q), side, ts, xs, ss, ys, *alpha)
        assert lhs == rhs


class TestRecursions:
    @pytest.mark.parametrize(
        "pair,shape",
        [
            pytest.param(hc_rec_z_triv1_pair, (1, 1, 2, 2), id="S_TO_Y-shape0"),
            pytest.param(hc_rec_z_triv2_pair, (2, 2, 1, 1), id="T_TO_X-shape1"),
            pytest.param(hc_rec_z_nontriv_pair, (2, 2, 1, 1), id="S_TO_T-shape2"),
            pytest.param(hc_rec_z_nontriv_d_pair, (1, 1, 2, 2), id="Y_TO_X-shape3"),
        ],
    )
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_residue_recursions(self, pair, shape, side):
        a, _, b, _ = shape
        (ts, xs, ss, ys), q = sample_generic((a, a, b, b), 41)
        lhs, rhs = pair(Kernel(q), side, ts, xs, ss, ys)
        assert lhs == rhs

    @pytest.mark.parametrize("pair", [
        pytest.param(hc_red1_pair, id="RED1"),
        pytest.param(hc_red2_pair, id="RED2"),
    ])
    def test_multiple_limit_reductions(self, pair):
        (ts, xs, ss, ys, zs), q = sample_generic((1, 1, 1, 1, 2), 43)
        lhs, rhs = pair(Kernel(q), "l", ts, xs, ss, ys, zs)
        assert lhs == rhs

    def test_nontrivial_multiple_limit(self):
        # shape: #t = a - n, #x = a, #s = b - n, #y = b, #z = n
        (ts, xs, ss, ys, zs), q = sample_generic((1, 2, 1, 2, 1), 44)
        lhs, rhs = hc_nontriv2_pair(Kernel(q), "l", ts, xs, ss, ys, zs)
        assert lhs == rhs

    @pytest.mark.parametrize("pair,pool", [
        pytest.param(hc_dec1_pair, (2, 1, 2, 1, 1), id="DEC1"),
        pytest.param(hc_dec2_pair, (1, 2, 1, 2, 1), id="DEC2"),
    ])
    def test_decompositions(self, pair, pool):
        (ts, xs, ss, ys, zs), q = sample_generic(pool, 45)
        lhs, rhs = pair(Kernel(q), "r", ts, xs, ss, ys, zs)
        assert lhs == rhs


class TestTwins:
    @pytest.mark.parametrize("pair", [
        pytest.param(hc_twin_1_pair, id="1"),
        pytest.param(hc_twin_2_pair, id="2"),
    ])
    def test_first_kind_twin_sums(self, pair):
        # a = 2, b = 1, xi has a - b = 1 element, no x-parameters
        (ts, ss, ys, xi), q = sample_generic((2, 1, 1, 1), 51)
        lhs, rhs = pair(Kernel(q), "l", ts, ss, ys, xi)
        assert lhs == rhs

    @pytest.mark.parametrize("pair", [
        pytest.param(hc_twin_3_pair, id="3"),
        pytest.param(hc_twin_4_pair, id="4"),
    ])
    def test_third_kind_twin_sums(self, pair):
        (ts, xs, ys, xi), q = sample_generic((1, 1, 2, 1), 52)
        lhs, rhs = pair(Kernel(q), "r", ts, xs, ys, xi)
        assert lhs == rhs


def prop51_rhs_per_split(kern, side, ts, xs, ss, ys, ws, zs):
    """The right side of PROP_5_1 with one `hc` per split of xi."""
    b, p = len(ss), len(ys)
    u, opp, fprod = kern.usign(side), kern.other(side), kern.fprod
    xi = kern.shift(xs, -2) + kern.shift(zs, -2)
    total = Rat(0)
    for k in range(max(0, p - len(xi)), min(p, b) + 1):
        for s1, s2 in enumerate_partitions(ss, k):
            for x1, x2 in enumerate_partitions(xi, p - k):
                total = total + (
                    kern.mq(-u * k)
                    * izergin_side(kern, opp, kern.shift(s1, -2) + x1, ys)
                    * hc(kern, side, ts, xs, s2, ws + x1)
                    * fprod(s1, s2) * fprod(x2, x1) * fprod(ys, s1) * fprod(ws, s1)
                    / fprod(s1, zs)
                )
    return total


def prop51_rhs_value_sums(kern, side, ts, xs, ss, ys, ws, zs):
    """The right side of PROP_5_1 summed as values from ``Rat(0)``.

    Each inner term is K^(o) Z f, with K^(o) from `izergin_side` and Z from
    `hc`'s ws sum, each outer term the s factors times the inner sum.
    """
    b, p = len(ss), len(ys)
    u, opp, fprod = kern.usign(side), kern.other(side), kern.fprod
    xi = kern.shift(xs, -2) + kern.shift(zs, -2)
    total = Rat(0)
    for k in range(max(0, p - len(xi)), min(p, b) + 1):
        sign = kern.mq(-u * k)
        splits = list(enumerate_partitions(xi, p - k))
        for s1, s2 in enumerate_partitions(ss, k):
            s1q = kern.shift(s1, -2)
            inner = Rat(0)
            for x1, x2 in splits:
                z = hc(kern, side, ts, xs, s2, ws + x1, "ws")
                inner = inner + izergin_side(kern, opp, s1q + x1, ys) * z * fprod(x2, x1)
            total = total + (
                sign * fprod(s1, s2) * fprod(ys, s1) * fprod(ws, s1) / fprod(s1, zs) * inner
            )
    return total


class TestSummationIdentity:
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_double_partition_sum(self, side):
        # a = 1, b = 2, p = 1, n = 1
        (ts, xs, ss, ys, ws, zs), q = sample_generic((1, 1, 2, 1, 1, 1), 53)
        lhs, rhs = hc_prop51_pair(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        assert lhs == rhs

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b,p,n", [
        (1, 2, 1, 1), (2, 2, 2, 0), (1, 1, 1, 2), (0, 2, 2, 1), (2, 3, 2, 1), (2, 2, 0, 1),
    ])
    def test_batched_right_side_matches_one_hc_per_split(self, side, a, b, p, n):
        (ts, xs, ss, ys, ws, zs), q = sample_generic((a, a, b, p, b - p, n), 54)
        _, rhs = hc_prop51_pair(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        want = prop51_rhs_per_split(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        assert rhs == want != 0

    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a", range(4))
    @pytest.mark.parametrize("b", range(4))
    def test_integer_sums_match_the_value_sums(self, side, a, b):
        for p in range(b + 1):
            for n in range(3):
                (ts, xs, ss, ys, ws, zs), q = sample_generic((a, a, b, p, b - p, n), 55)
                _, rhs = hc_prop51_pair(Kernel(q), side, ts, xs, ss, ys, ws, zs)
                want = prop51_rhs_value_sums(Kernel(q), side, ts, xs, ss, ys, ws, zs)
                assert type(rhs) is Rat and rhs == want, (p, n)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_integer_sums_match_the_value_sums_at_a_series_point(self, side):
        # s_1 and t_1 near poles of Z: a level-1 series right side, ended by
        # `_ratio` and compared field for field
        (ts, xs, ss, ys, ws, zs), q = sample_generic((2, 2, 2, 1, 1, 1), 56)
        ss = (ts[0] + eps(),) + ss[1:]
        _, rhs = hc_prop51_pair(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        want = prop51_rhs_value_sums(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        assert isinstance(rhs, LaurentSeries) and rhs.valuation < 0
        assert fields(rhs) == fields(want)


class TestAsymptotics:
    @pytest.mark.parametrize(
        "side,slot,need",
        [
            ("l", "t", 1),
            ("l", "s", 1),
            ("l", "x", 0),
            ("l", "y", 0),
            ("r", "x", 1),
            ("r", "y", 1),
            ("r", "t", 0),
            ("r", "s", 0),
        ],
    )
    def test_large_argument_valuation(self, side, slot, need):
        (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), 61)
        got = hc_infinity_valuation(Kernel(q), side, ts, xs, ss, ys, slot)
        assert got >= need

    @pytest.mark.parametrize(
        "zero,want",
        [
            # zero only below eps^0: nothing shown about decay
            (LaurentSeries(0, (), order=0), 0),
            (LaurentSeries(0, (), order=3), 3),
            # an exact zero decays
            (LaurentSeries.zero(), 1),
        ],
    )
    def test_zero_valuation_is_a_lower_bound(self, monkeypatch, zero, want):
        monkeypatch.setattr(qhc.highest, "hc", lambda *args: zero)
        sets = ((Rat(2),), (Rat(3),), (Rat(5),), (Rat(7),))
        assert hc_infinity_valuation(Kernel(Rat(2)), "l", *sets, "t") == want

    @pytest.mark.parametrize("sets,slot,message", [
        (((2,), (3,), (), ()), "s", "slot 's' is empty"),
        (((), (), (5,), (7,)), "t", "slot 't' is empty"),
        (((2,), (3,), (5,), (7,)), "z", "unknown slot 'z' (expected t, x, s or y)"),
    ])
    def test_a_slot_with_no_argument_is_rejected(self, sets, slot, message):
        sets = [tuple(Rat(v) for v in vals) for vals in sets]
        with pytest.raises(ValueError, match=re.escape(message)):
            hc_infinity_valuation(Kernel(Rat(2)), "l", *sets, slot)


def _sets(*sizes):
    sets, _ = sample_generic(sizes, 71)
    return sets


@pytest.mark.parametrize("evaluate,sets,message", [
    pytest.param(hc_z_scal_pair, _sets(1, 1, 1, 1) + (Rat(0),), "nonzero alpha",
                 id="z_scal-alpha-0"),
    pytest.param(hc_dec1_pc_pair, _sets(2, 2, 1, 1), "#z = a", id="dec1_pc-#z"),
    pytest.param(hc_dec2_pc_pair, _sets(1, 1, 2, 1), "#z = b", id="dec2_pc-#z"),
    pytest.param(hc_twin_1_pair, _sets(2, 1, 2, 1), "TWIN_1 and TWIN_2", id="twin_1-#y"),
    pytest.param(hc_twin_1_pair, _sets(2, 1, 1, 0), "TWIN_1 and TWIN_2", id="twin_1-#xi"),
    pytest.param(hc_twin_2_pair, _sets(2, 1, 2, 1), "TWIN_1 and TWIN_2", id="twin_2-#y"),
    pytest.param(hc_twin_2_pair, _sets(2, 1, 1, 2), "TWIN_1 and TWIN_2", id="twin_2-#xi"),
    pytest.param(hc_twin_3_pair, _sets(1, 2, 2, 1), "TWIN_3 and TWIN_4", id="twin_3-#x"),
    pytest.param(hc_twin_3_pair, _sets(1, 1, 2, 0), "TWIN_3 and TWIN_4", id="twin_3-#xi"),
    pytest.param(hc_twin_4_pair, _sets(1, 2, 2, 1), "TWIN_3 and TWIN_4", id="twin_4-#x"),
    pytest.param(hc_twin_4_pair, _sets(1, 1, 2, 2), "TWIN_3 and TWIN_4", id="twin_4-#xi"),
    pytest.param(hc_prop51_pair, _sets(1, 1, 2, 1, 2, 1), "#w must equal", id="prop51-#w"),
    pytest.param(hc, _sets(1, 2, 1, 1), "#t != #x", id="hc-#t"),
])
def test_bad_cardinalities_and_alpha_raise(evaluate, sets, message):
    """Sets in the evaluator's order: twins 1/2 take (t, s, y, xi), 3/4 (t, x, y, xi)."""
    with pytest.raises(ValueError, match=message):
        evaluate(Kernel(Rat(2)), "l", *sets)
