"""Scalar-product expansion and coefficient extraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.exactnum import PoleError, Rat
from qhc.highest import hc
from qhc.izergin import Kernel
from qhc.params import sample_generic
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


class TestCornerCases:
    def test_left_corner_is_left_hc(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 71)
        kern = Kernel(q)
        got = w_part(kern, ((), uC), ((), uB), (vC, ()), (vB, ()))
        assert got == hc(kern, "l", uC, uB, vC, vB)

    def test_right_corner_is_right_hc(self):
        (uC, uB, vC, vB), q = sample_generic((2, 2, 2, 2), 72)
        kern = Kernel(q)
        got = w_part(kern, (uC, ()), (uB, ()), ((), vC), ((), vB))
        assert got == hc(kern, "r", uB, uC, vB, vC)

    def test_linked_cardinality_enforced(self):
        kern = Kernel(Rat(2))
        with pytest.raises(ValueError):
            w_part(kern, ((Rat(2),), ()), ((), (Rat(3),)), ((), ()), ((), ()))


class TestSymbolicExpansion:
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
