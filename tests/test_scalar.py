"""Scalar-product expansion and coefficient extraction."""

from itertools import product
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.exactnum import PoleError, Rat, eps
from qhc.highest import hc
from qhc.izergin import Kernel
from qhc.params import sample_generic
from qhc.partitions import enumerate_partitions
from qhc.scalar import (
    RationalFunctionSpec,
    extract_coefficient,
    format_monomial,
    monomial,
    scalar_product_numeric,
    scalar_product_symbolic,
    w_part,
)


class TestRationalFunctionSpec:
    def test_parse_and_eval(self):
        spec = RationalFunctionSpec.parse("num:1,2;den:1,0,1")
        # (1 + 2u) / (1 + u^2) at u = 3
        assert spec(Rat(3)) == Rat(7, 10)

    def test_default_denominator(self):
        spec = RationalFunctionSpec.parse("num:5")
        assert spec(Rat(100)) == Rat(5)

    def test_vanishing_denominator_raises(self):
        spec = RationalFunctionSpec((Rat(1),), (Rat(-9), Rat(0), Rat(1)))
        with pytest.raises(PoleError):
            spec(Rat(3))

    def test_missing_num_rejected(self):
        with pytest.raises(ValueError):
            RationalFunctionSpec.parse("den:1,2")

    @pytest.mark.parametrize("text,message", [
        ("foo", "section 'foo' has no ':' in 'foo'"),
        ("num:1;dem:2", "unknown section 'dem' in 'num:1;dem:2' (expected num or den)"),
        ("num:1;num:2", "repeated section 'num' in 'num:1;num:2'"),
        ("num:1;den:2;den:3", "repeated section 'den' in 'num:1;den:2;den:3'"),
    ])
    def test_malformed_sections_rejected(self, text, message):
        with pytest.raises(ValueError) as info:
            RationalFunctionSpec.parse(text)
        assert str(info.value) == message

    def test_spaces_around_a_section_name(self):
        spec = RationalFunctionSpec.parse("num:1; den:2")
        assert (spec.num, spec.den) == ((Rat(1),), (Rat(2),))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            RationalFunctionSpec((Rat(1),), (Rat(0),))


class TestMonomials:
    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            monomial([("vC", 0)], [])

    def test_format(self):
        mono = monomial([("uC", 0)], [("vB", 1)])
        assert format_monomial(mono) == "r1[uC1] r3[vB2]"

    def test_empty_monomial(self):
        assert format_monomial(monomial()) == "1"


def split_coefficient(kern, uC_split, uB_split, vC_split, vB_split):
    """The paper's coefficient of one four-way split, from `hc` and f alone.

    Z is taken in the "ty" representation, so the check does not share the
    "ws" sum that `w_part` runs.
    """
    (uC1, uC2), (uB1, uB2), (vC1, vC2), (vB1, vB2) = uC_split, uB_split, vC_split, vB_split
    f = kern.fprod
    return (
        f(uB2, uB1) * f(uC1, uC2) * f(vB1, vB2) * f(vC2, vC1) * f(vC1, uC1) * f(vB2, uB2)
        * hc(kern, "l", uC2, uB2, vC1, vB1, "ty")
        * hc(kern, "r", uB1, uC1, vB2, vC2, "ty")
    )


def _splits(tag, vals, k):
    return [([(tag, i) for i in one], [(tag, i) for i in two],
             (tuple(vals[i] for i in one), tuple(vals[i] for i in two)))
            for one, two in enumerate_partitions(range(len(vals)), k)]


def reference_symbolic(kern, uC, vC, uB, vB):
    """S_{a,b} one four-way split at a time, as the paper writes it.

    The monomial r1(uC_II, uB_I) r3(vC_II, vB_I) determines the split, so
    no monomial is met twice.
    """
    a, b = len(uC), len(vC)
    global_f = kern.fprod(vC, uC) * kern.fprod(vB, uB)
    poly = {}
    for k in range(a + 1):
        uCs, uBs = _splits("uC", uC, k), _splits("uB", uB, k)
        for n in range(b + 1):
            vCs, vBs = _splits("vC", vC, n), _splits("vB", vB, n)
            for _, uC_syms, uC_split in uCs:
                for uB_syms, _, uB_split in uBs:
                    for _, vC_syms, vC_split in vCs:
                        for vB_syms, _, vB_split in vBs:
                            mono = monomial(uC_syms + uB_syms, vC_syms + vB_syms)
                            assert mono not in poly
                            poly[mono] = split_coefficient(
                                kern, uC_split, uB_split, vC_split, vB_split
                            ) / global_f
    return {m: c for m, c in poly.items() if c != 0}


class TestWPart:
    @pytest.mark.parametrize("a,b,k,n", [
        (1, 1, 0, 1), (1, 1, 1, 0), (2, 2, 1, 1), (2, 1, 1, 1), (1, 2, 0, 1), (2, 2, 2, 0),
    ])
    def test_each_entry_is_its_splits_coefficient(self, a, b, k, n):
        (uC, uB, vC, vB), q = sample_generic((a, a, b, b), 78 + a + b + k + n)
        kern = Kernel(q)
        splits = [list(enumerate_partitions(uC, k)), list(enumerate_partitions(uB, k)),
                  list(enumerate_partitions(vC, n)), list(enumerate_partitions(vB, n))]
        got = w_part(kern, *splits)
        assert len(got) == prod(len(s) for s in splits)
        for four, coeff in zip(product(*splits), got):
            assert type(coeff) is Rat
            assert coeff == split_coefficient(kern, *four)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("n", range(3))
    def test_each_entry_is_its_f_products_times_its_ws_cells(self, k, n):
        # The product of Rat values, with Z from hc's ws sum on a fresh kernel.
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 81)
        splits = [list(enumerate_partitions(uC, k)), list(enumerate_partitions(uB, k)),
                  list(enumerate_partitions(vC, n)), list(enumerate_partitions(vB, n))]
        got = w_part(Kernel(q), *splits)
        assert len(got) == prod(len(s) for s in splits)
        ref = Kernel(q)
        f = ref.fprod
        for ((uC1, uC2), (uB1, uB2), (vC1, vC2), (vB1, vB2)), coeff in zip(product(*splits), got):
            assert type(coeff) is Rat
            assert coeff == (
                f(uB2, uB1) * f(uC1, uC2) * f(vB1, vB2) * f(vC2, vC1) * f(vC1, uC1) * f(vB2, uB2)
                * hc(ref, "l", uC2, uB2, vC1, vB1, "ws")
                * hc(ref, "r", uB1, uC1, vB2, vC2, "ws"))

    def test_a_uB_value_met_in_vC_is_a_pole(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 82)
        vC = (vC[0], Rat(uB[1]))  # an equal value, another object
        splits = [list(enumerate_partitions(vals, 1)) for vals in (uC, uB, vC, vB)]
        with pytest.raises(PoleError, match="vanishing denominator"):
            w_part(Kernel(q), *splits)

    def test_empty_batches(self):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 2, 2), 79)
        kern = Kernel(q)
        uC_splits, uB_splits = [(uC, ())], [(uB, ())]
        vC_splits = list(enumerate_partitions(vC, 1))
        vB_splits = list(enumerate_partitions(vB, 1))
        assert w_part(kern, uC_splits, uB_splits, [], vB_splits) == []
        assert w_part(kern, uC_splits, uB_splits, vC_splits, []) == []
        assert w_part(kern, [], uB_splits, vC_splits, vB_splits) == []

    def test_a_series_value_is_rejected(self):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 1, 1), 80)
        moved = (uC[0] + eps(),)
        with pytest.raises(TypeError, match="w_part needs rational values"):
            w_part(Kernel(q), [((), moved)], [((), uB)], [(vC, ())], [(vB, ())])


class TestCornerCases:
    def test_left_corner_is_left_hc(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 71)
        kern = Kernel(q)
        got = w_part(kern, [((), uC)], [((), uB)], [(vC, ())], [(vB, ())])
        assert got == [hc(kern, "l", uC, uB, vC, vB)]

    def test_right_corner_is_right_hc(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 72)
        kern = Kernel(q)
        got = w_part(kern, [(uC, ())], [(uB, ())], [((), vC)], [((), vB)])
        assert got == [hc(kern, "r", uB, uC, vB, vC)]

    def test_linked_cardinality_enforced(self):
        kern = Kernel(Rat(2))
        two, three, five, seven = Rat(2), Rat(3), Rat(5), Rat(7)
        for args in [
            ([((two,), ())], [((), (three,))], [((), ())], [((), ())]),
            ([((), ())], [((), ())], [((two,), ())], [((), (three,))]),
            ([((), ())], [((), ())], [((two,), (five,)), ((), (two, five))],
             [((three,), (seven,))]),
            ([((two,), (five,)), ((), (two, five))], [((three,), (seven,))],
             [((), ())], [((), ())]),
            ([((), (two,))], [((), ())], [((), ())], [((), ())]),
            ([((), ())], [((), ())], [((), ())], [((), (three,))]),
        ]:
            with pytest.raises(ValueError, match="linked partition cardinalities must match"):
                w_part(kern, *args)


class TestSymbolicExpansion:
    @pytest.mark.parametrize("a,b", [
        (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0), (3, 1), (1, 3), (3, 2),
    ])
    def test_equals_the_sum_of_w_part_over_every_split(self, a, b):
        (uC, uB, vC, vB), q = sample_generic((a, a, b, b), 76)
        got = scalar_product_symbolic(Kernel(q), uC, vC, uB, vB)
        want = reference_symbolic(Kernel(q), uC, vC, uB, vB)
        assert len(got) == comb(2 * a, a) * comb(2 * b, b)
        assert got == want

    def test_extreme_coefficients_recover_hc(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 1, 1), 73)
        kern = Kernel(q)
        a, b = len(uC), len(vC)
        poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
        ff = kern.fprod(vC, uC) * kern.fprod(vB, uB)
        right_mono = monomial(
            [("uB", i) for i in range(a)], [("vC", j) for j in range(b)]
        )
        left_mono = monomial(
            [("uC", i) for i in range(a)], [("vB", j) for j in range(b)]
        )
        assert extract_coefficient(poly, right_mono) == hc(
            kern, "r", uB, uC, vB, vC
        ) / ff
        assert extract_coefficient(poly, left_mono) == hc(
            kern, "l", uC, uB, vC, vB
        ) / ff

    def test_multilinearity(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 74)
        poly = scalar_product_symbolic(Kernel(q), uC, vC, uB, vB)
        for mono in poly:
            # one symbol per parameter at most: a+b symbols in every monomial
            assert len(mono) == len(uC) + len(vC)
            assert len({(kind, tag, i) for kind, tag, i in mono}) == len(mono)

    def test_absent_monomial_is_zero(self):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 1, 1), 75)
        poly = scalar_product_symbolic(Kernel(q), uC, vC, uB, vB)
        bogus = monomial([("uC", 0), ("uB", 0)], [])
        assert extract_coefficient(poly, bogus) == Rat(0)


class TestNumericSubstitution:
    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=10, deadline=None)
    def test_unit_weights_sum_all_coefficients(self, seed):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 1, 1), seed)
        kern = Kernel(q)
        one = lambda u: Rat(1)
        got = scalar_product_numeric(kern, uC, vC, uB, vB, one, one)
        want = sum(
            scalar_product_symbolic(kern, uC, vC, uB, vB).values(), Rat(0)
        )
        assert got == want

    def test_zero_weight_kills_everything(self):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 1, 1), 76)
        kern = Kernel(q)
        zero = lambda u: Rat(0)
        one = lambda u: Rat(1)
        assert scalar_product_numeric(kern, uC, vC, uB, vB, zero, one) == Rat(0)

    def test_rational_weight_assembly(self):
        (uC, uB, vC, vB), q = sample_generic((1, 1, 0, 0), 77)
        kern = Kernel(q)
        r1 = RationalFunctionSpec.parse("num:1,2;den:1,0,1")
        r3 = RationalFunctionSpec.parse("num:1")
        got = scalar_product_numeric(kern, uC, vC, uB, vB, r1, r3)
        poly = scalar_product_symbolic(kern, uC, vC, uB, vB)
        want = sum(
            (
                coeff
                * (r1(uC[0]) if ("r1", "uC", 0) in mono else Rat(1))
                * (r1(uB[0]) if ("r1", "uB", 0) in mono else Rat(1))
            )
            for mono, coeff in poly.items()
        )
        assert got == want
