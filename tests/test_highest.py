"""Highest-coefficient representations, symmetries, and recursions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhc.highest
from qhc.exactnum import LaurentSeries, Rat
from qhc.highest import (
    REPRESENTATIONS,
    hc,
    hc_closed_11,
    hc_difference_11,
    hc_infinity_valuation,
    hc_multiple_limit_pair,
    hc_prop51_pair,
    hc_reduction_pair,
    hc_residue_pair,
    hc_symmetry_pair,
    hc_twin_sum_pair,
)
from qhc.izergin import Kernel, izergin_side
from qhc.params import Config, sample_generic


def closed_form_left(q, t, x, s, y):
    """Independent (1,1) closed form computed with Fraction arithmetic."""
    q, t, x, s, y = map(Fraction, (q, t, x, s, y))
    g = lambda u, v: (q - 1 / q) / (u - v)
    f = lambda u, v: (q * u - v / q) / (u - v)
    return x * y * g(x, t) * g(y, s) * f(s, x) + x * y * s * g(x, s) * g(s, t) * g(y, x)


class TestSmallestCase:
    def test_frozen_value(self):
        kern = Kernel(Rat(2))
        got = hc(kern, "l", (Rat(2),), (Rat(3),), (Rat(5),), (Rat(7),))
        assert got == Rat(5481, 64)

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_all_reps_match_reference(self, rep):
        for seed in range(5):
            (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), Config(seed=seed))
            kern = Kernel(q)
            want = closed_form_left(q, ts[0], xs[0], ss[0], ys[0])
            got = hc(kern, "l", ts, xs, ss, ys, rep)
            assert got == Rat(want.numerator, want.denominator)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_closed_form_helper(self, side):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), Config(seed=3))
        kern = Kernel(q)
        assert hc(kern, side, ts, xs, ss, ys) == hc_closed_11(
            kern, side, ts[0], xs[0], ss[0], ys[0]
        )

    def test_difference_identity(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), Config(seed=4))
        lhs, rhs = hc_difference_11(Kernel(q), ts[0], xs[0], ss[0], ys[0])
        assert lhs == rhs


class TestRepresentationAgreement:
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (2, 2)])
    def test_six_reps_agree(self, side, a, b):
        (ts, xs, ss, ys), q = sample_generic((a, a, b, b), Config(seed=21))
        kern = Kernel(q)
        vals = [hc(kern, side, ts, xs, ss, ys, rep) for rep in REPRESENTATIONS]
        assert all(v == vals[0] for v in vals)


class TestBoundaries:
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_pure_first_kind_is_izergin(self, side):
        (ts, xs), q = sample_generic((2, 2), Config(seed=6))
        kern = Kernel(q)
        assert hc(kern, side, ts, xs, (), ()) == izergin_side(kern, side, xs, ts)

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_pure_third_kind_is_izergin(self, side):
        (ss, ys), q = sample_generic((2, 2), Config(seed=7))
        kern = Kernel(q)
        assert hc(kern, side, (), (), ss, ys) == izergin_side(kern, side, ys, ss)

    def test_empty_is_one(self):
        assert hc(Kernel(Rat(2)), "l", (), (), (), ()) == Rat(1)

    def test_left_vanishes_at_zero_y(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), Config(seed=8))
        kern = Kernel(q)
        assert hc(kern, "l", ts, xs, ss, (Rat(0),)) == Rat(0)

    def test_right_vanishes_at_zero_t(self):
        (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), Config(seed=8))
        kern = Kernel(q)
        assert hc(kern, "r", (Rat(0),), xs, ss, ys) == Rat(0)


class TestSymmetries:
    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=15, deadline=None)
    def test_permutation_invariance(self, seed):
        (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), Config(seed=seed))
        kern = Kernel(q)
        assert hc(kern, "l", ts, xs, ss, ys) == hc(
            kern, "l", ts[::-1], xs, ss, ys[::-1]
        )

    @pytest.mark.parametrize("variant", ["Z_SCAL", "Z_INVERS", "Z_INVERS1"])
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_symmetry_pairs(self, variant, side):
        (ts, xs, ss, ys, al), q = sample_generic((2, 2, 1, 1, 1), Config(seed=31))
        lhs, rhs = hc_symmetry_pair(
            variant, Kernel(q), side, ts, xs, ss, ys, alpha=al[0]
        )
        assert lhs == rhs


class TestRecursions:
    @pytest.mark.parametrize(
        "variant,shape",
        [
            ("S_TO_Y", (1, 1, 2, 2)),
            ("T_TO_X", (2, 2, 1, 1)),
            ("S_TO_T", (2, 2, 1, 1)),
            ("Y_TO_X", (1, 1, 2, 2)),
        ],
    )
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_residue_recursions(self, variant, shape, side):
        a, _, b, _ = shape
        (ts, xs, ss, ys), q = sample_generic((a, a, b, b), Config(seed=41))
        lhs, rhs = hc_residue_pair(variant, Kernel(q), side, ts, xs, ss, ys)
        assert lhs == rhs

    @pytest.mark.parametrize("variant", ["RED1", "RED2"])
    def test_multiple_limit_reductions(self, variant):
        (ts, xs, ss, ys, zs), q = sample_generic((1, 1, 1, 1, 2), Config(seed=43))
        lhs, rhs = hc_multiple_limit_pair(
            variant, Kernel(q), "l", ts, xs, ss, ys, zs
        )
        assert lhs == rhs

    def test_nontrivial_multiple_limit(self):
        # shape: #t = a - n, #x = a, #s = b - n, #y = b, #z = n
        (ts, xs, ss, ys, zs), q = sample_generic((1, 2, 1, 2, 1), Config(seed=44))
        lhs, rhs = hc_multiple_limit_pair(
            "NONTRIV2", Kernel(q), "l", ts, xs, ss, ys, zs
        )
        assert lhs == rhs

    @pytest.mark.parametrize("variant", ["DEC1", "DEC2"])
    def test_decompositions(self, variant):
        if variant == "DEC2":
            pool = (1, 2, 1, 2, 1)
        else:
            pool = (2, 1, 2, 1, 1)
        (ts, xs, ss, ys, zs), q = sample_generic(pool, Config(seed=45))
        lhs, rhs = hc_reduction_pair(variant, Kernel(q), "r", ts, xs, ss, ys, zs)
        assert lhs == rhs


class TestTwins:
    @pytest.mark.parametrize("variant", [1, 2])
    def test_first_kind_twin_sums(self, variant):
        # a = 2, b = 1, xi has a - b = 1 element, no x-parameters
        (ts, ss, ys, xi), q = sample_generic((2, 1, 1, 1), Config(seed=51))
        lhs, rhs = hc_twin_sum_pair(variant, Kernel(q), "l", ts, (), ss, ys, xi)
        assert lhs == rhs

    @pytest.mark.parametrize("variant", [3, 4])
    def test_third_kind_twin_sums(self, variant):
        (ts, xs, ys, xi), q = sample_generic((1, 1, 2, 1), Config(seed=52))
        lhs, rhs = hc_twin_sum_pair(variant, Kernel(q), "r", ts, xs, (), ys, xi)
        assert lhs == rhs


class TestSummationIdentity:
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_double_partition_sum(self, side):
        # a = 1, b = 2, p = 1, n = 1
        (ts, xs, ss, ys, ws, zs), q = sample_generic(
            (1, 1, 2, 1, 1, 1), Config(seed=53)
        )
        lhs, rhs = hc_prop51_pair(Kernel(q), side, ts, xs, ss, ys, ws, zs)
        assert lhs == rhs


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
        (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), Config(seed=61))
        got = hc_infinity_valuation(Kernel(q), side, ts, xs, ss, ys, slot, 0)
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
        assert hc_infinity_valuation(Kernel(Rat(2)), "l", *sets, "t", 0) == want
