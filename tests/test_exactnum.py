"""Exact scalars and truncated Laurent series."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhc.exactnum import (
    INVERT_TERMS,
    LaurentSeries,
    PoleError,
    Rat,
    SingularPartError,
    WindowError,
    eps,
    invert_window,
    scalar_format,
    scalar_parse,
    take_limit,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
).map(lambda f: Rat(f.numerator, f.denominator))


def series(valuation, coeffs, order=math.inf, level=1):
    return LaurentSeries(valuation, tuple(Rat(c) for c in coeffs), order, level)


small_series = st.builds(
    series,
    st.integers(min_value=-3, max_value=3),
    st.lists(rationals, min_size=1, max_size=4),
)


class TestScalarParsing:
    def test_parse_integer(self):
        assert scalar_parse("7") == Rat(7)

    def test_parse_fraction(self):
        assert scalar_parse("-3/4") == Rat(-3, 4)

    def test_format_roundtrip(self):
        for text in ("0", "5", "-5", "22/7", "-22/7"):
            assert scalar_format(scalar_parse(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            scalar_parse("1.5x")

    def test_rat_matches_fraction_arithmetic(self):
        a, b = Rat(22, 7), Rat(-3, 5)
        fa, fb = Fraction(22, 7), Fraction(-3, 5)
        got = a * b + a / b - b
        want = fa * fb + fa / fb - fb
        assert got == Rat(want.numerator, want.denominator)


class TestSeriesRing:
    @given(small_series, small_series)
    @settings(max_examples=60)
    def test_addition_commutes(self, s, t):
        assert s + t == t + s

    @given(small_series, small_series)
    @settings(max_examples=60)
    def test_multiplication_commutes(self, s, t):
        assert s * t == t * s

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_distributivity(self, s, t, u):
        assert s * (t + u) == s * t + s * u

    @given(small_series)
    @settings(max_examples=60)
    def test_additive_inverse(self, s):
        assert (s - s).is_zero()

    @given(small_series, rationals)
    @settings(max_examples=60)
    def test_scalar_coercion_matches_constant_series(self, s, c):
        assert s + c == s + LaurentSeries(0, (c,), order=8)

    def test_monomial_inverse_is_exact(self):
        m = series(3, [Rat(2)])
        inv = m.invert()
        assert inv.valuation == -3
        assert (m * inv) == LaurentSeries(0, (Rat(1),), order=8)
        assert inv.order == math.inf

    @given(small_series)
    @settings(max_examples=60)
    def test_unit_inverse_multiplies_to_one(self, s):
        if s.is_zero() or s.coeffs[0] == 0:
            return
        prod = s * s.invert()
        # equality is checked on the common reliable window
        assert prod == LaurentSeries(0, (Rat(1),), order=4)

    def test_division_by_zero_scalar_raises(self):
        with pytest.raises(PoleError):
            series(0, [1]) / Rat(0)


class TestEpsilonLimits:
    def test_simple_limit(self):
        v = Rat(5) + eps()
        assert take_limit(v * v) == Rat(25)

    def test_first_order_coefficient(self):
        v = (Rat(3) + eps()) * (Rat(2) + eps())
        # (3 + e)(2 + e) = 6 + 5e + e^2
        assert v.coeff(1) == Rat(5)

    def test_singular_part_detected(self):
        with pytest.raises(SingularPartError):
            take_limit(eps().invert())

    def test_residue_extraction(self):
        # 1/((x + e) - x) has residue 1 at e = 0
        x = Rat(7)
        expr = (x + eps() - x).invert()
        assert expr.coeff(-1) == Rat(1)

    def test_nested_levels_collapse_outer_first(self):
        inner, outer = eps(level=1), eps(level=2)
        expr = (Rat(2) + inner) + outer
        collapsed = take_limit(expr)
        assert take_limit(collapsed) == Rat(2)

    def test_window_exhaustion_raises(self):
        narrow = LaurentSeries(0, (), order=0)
        with pytest.raises(WindowError):
            take_limit(narrow)


def _second_order_limit():
    # (1/(1 + e) - 1 + e) / e^2 = 1 - e + ..., which needs three terms of 1/(1 + e)
    return take_limit((LaurentSeries(0, (1, 1)).invert() - 1 + eps()) / eps() ** 2)


class TestInvertWindow:
    def test_the_default_window_is_eight_terms(self):
        assert INVERT_TERMS == 8
        assert LaurentSeries(0, (1, 1)).invert().order == 8

    def test_a_window_too_narrow_for_a_limit_raises(self):
        with invert_window(2):
            with pytest.raises(WindowError):
                _second_order_limit()

    @pytest.mark.parametrize("terms", [3, 4, 8])
    def test_a_wide_enough_window_gives_the_limit(self, terms):
        with invert_window(terms):
            assert _second_order_limit() == 1

    def test_the_window_is_restored_after_an_exception(self):
        with pytest.raises(WindowError):
            with invert_window(2):
                assert LaurentSeries(0, (1, 1)).invert().order == 2
                _second_order_limit()
        assert LaurentSeries(0, (1, 1)).invert().order == INVERT_TERMS
        assert _second_order_limit() == 1


class TestTruncationIsSound:
    """A truncated series claims nothing at or above its order."""

    def test_equality_beyond_the_common_order_raises(self):
        with pytest.raises(WindowError):
            LaurentSeries(0, (3,), order=0) == 5
        with pytest.raises(WindowError):
            series(0, [1, 2], order=1) == series(0, [1, 2])
        assert LaurentSeries(0, (), order=8) == 0
        assert series(0, [1, 2], order=3) == series(0, [1, 2])

    @pytest.mark.parametrize("order", [-5, 0])
    def test_equality_must_reach_the_constant_term(self, order):
        with pytest.raises(WindowError):
            LaurentSeries(0, (), order=order) == 0
        with pytest.raises(WindowError):
            series(-2, [1], order=order) == series(-2, [1])
        assert series(-2, [1], order=1) == series(-2, [1])

    def test_nested_zero_known_only_in_its_window_is_kept(self):
        inner = LaurentSeries(1, (), order=1)
        with pytest.raises(WindowError):
            take_limit(LaurentSeries(-1, (inner, 2), level=2))

    def test_nested_exact_zero_is_trimmed(self):
        value = LaurentSeries(-1, (LaurentSeries.zero(), 2), level=2)
        assert value.valuation == 0
        assert take_limit(value) == Rat(2)

    def test_known_singular_part_still_detected(self):
        inner = LaurentSeries(1, (), order=1)
        with pytest.raises(SingularPartError):
            take_limit(LaurentSeries(-2, (inner, 3), level=2))

    def test_truncated_zero_times_series_is_not_exact(self):
        prod = LaurentSeries(0, (), order=3) * LaurentSeries(-5, (Rat(1),))
        assert prod.is_zero() and prod.order == -2
        with pytest.raises(WindowError):
            take_limit(prod)

    def test_exact_zero_times_series_is_exact(self):
        prod = LaurentSeries.zero() * LaurentSeries(0, (), order=3)
        assert prod.is_zero() and prod.is_exact()

    def test_every_zero_has_valuation_0(self):
        t = LaurentSeries(2, (), order=5)
        zero = LaurentSeries.constant(Rat(0))
        for z in (LaurentSeries.zero(), zero, t, t + zero, zero + t):
            assert z.is_zero() and z.valuation == 0
        assert (t + zero).order == (zero + t).order == 5

    def test_lower_level_truncated_zero_is_not_lifted_to_exact_zero(self):
        with pytest.raises(WindowError):
            take_limit(eps(level=2) + LaurentSeries(0, (), order=0))
        assert take_limit(eps(level=2) + LaurentSeries.zero()) == Rat(0)


def completed_and_truncated(valuation, coeffs, extra):
    """An exact series and its truncation at valuation + extra (None: exact)."""
    exact = series(valuation, coeffs)
    order = math.inf if extra is None else valuation + extra
    return exact, series(valuation, coeffs, order)


truncated_pairs = st.builds(
    completed_and_truncated,
    st.integers(min_value=-3, max_value=3),
    st.lists(rationals, min_size=0, max_size=4),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)


def assert_agrees_below_order(got, want, lo=-12, hi=20):
    """``got`` matches ``want`` at every power it claims to know."""
    top = hi if got.order == math.inf else min(hi, int(got.order))
    for k in range(lo, top):
        assert got.coeff(k) == want.coeff(k), (k, got, want)


class TestTruncatedOperations:
    @given(truncated_pairs, truncated_pairs)
    @settings(max_examples=150)
    def test_sum_agrees_below_its_order(self, s, t):
        assert_agrees_below_order(s[1] + t[1], s[0] + t[0])

    @given(truncated_pairs, truncated_pairs)
    @settings(max_examples=150)
    def test_product_agrees_below_its_order(self, s, t):
        assert_agrees_below_order(s[1] * t[1], s[0] * t[0])

    @given(truncated_pairs)
    @settings(max_examples=150)
    def test_inverse_agrees_with_a_wider_window(self, s):
        exact, trunc = s
        if trunc.is_zero():
            with pytest.raises(PoleError if trunc.is_exact() else WindowError):
                trunc.invert()
            return
        wide = series(exact.valuation, exact.coeffs, exact.valuation + 40).invert()
        assert_agrees_below_order(trunc.invert(), wide)


scalars = st.one_of(rationals, st.integers(min_value=-9, max_value=9), st.just(Rat(0)))


def truncated(valuation, coeffs, extra, level=1):
    """A series cut at valuation + extra (None: exact); coefficients kept as given."""
    order = math.inf if extra is None else valuation + extra
    return LaurentSeries(valuation, coeffs, order, level)


windows = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
level1_series = st.builds(
    truncated, st.integers(min_value=-3, max_value=3), st.lists(scalars, max_size=5), windows)
level2_series = st.builds(
    truncated, st.integers(min_value=-2, max_value=2),
    st.lists(st.one_of(scalars, level1_series), max_size=4), windows, st.just(2))


def fraction_convolution(s, t):
    """Coefficients of ``s * t`` by power, from a plain ``Fraction`` convolution."""
    out = {}
    for i, x in enumerate(s.coeffs):
        for j, y in enumerate(t.coeffs):
            k = s.valuation + t.valuation + i + j
            out[k] = out.get(k, Fraction(0)) + (
                Fraction(x.numerator, x.denominator) * Fraction(y.numerator, y.denominator))
    return out


def exact_zero(c):
    return c.is_zero() and c.is_exact() if isinstance(c, LaurentSeries) else c == 0


def low(s):
    return s.order if s.is_zero() else s.valuation


def product_order(s, t):
    if exact_zero(s) or exact_zero(t):
        return math.inf
    return min(low(s) + t.order, low(t) + s.order)


class TestProductReference:
    """Series products against a convolution written out with ``Fraction``."""

    @given(level1_series, level1_series)
    @settings(max_examples=300)
    def test_level1_product_matches_fraction_convolution(self, s, t):
        prod = s * t
        want = fraction_convolution(s, t)
        assert prod.order == product_order(s, t)
        top = max(want, default=0) + 1 if prod.order == math.inf else int(prod.order)
        for k in range(min(want, default=0) - 1, top):
            w = want.get(k, Fraction(0))
            got = prod.coeff(k)
            assert got == Rat(w.numerator, w.denominator), (k, s, t, prod)
            assert scalar_format(got) == scalar_format(Rat(w.numerator, w.denominator))
        assert all(type(c) is type(Rat(1)) for c in prod.coeffs)

    @given(level2_series, level2_series)
    @example(LaurentSeries(0, (Rat(1), Rat(0), LaurentSeries.zero(), Rat(2)), level=2),
             LaurentSeries(0, (truncated(-1, [Rat(1), Rat(5)], 3), Rat(3)), level=2))
    @settings(max_examples=200)
    def test_level2_product_matches_termwise_sums(self, s, t):
        # the reference adds the level-1 products x * y one by one
        prod = s * t
        assert prod.level == 2 and prod.order == product_order(s, t)
        top = len(s.coeffs) + len(t.coeffs) - 1
        if prod.order != math.inf:
            top = min(top, int(prod.order) - s.valuation - t.valuation)
        for k in range(top):
            want = Rat(0)
            for i, x in enumerate(s.coeffs):
                if 0 <= k - i < len(t.coeffs):
                    want = want + x * t.coeffs[k - i]
            got = prod.coeff(s.valuation + t.valuation + k)
            if exact_zero(want):
                assert exact_zero(got)
                continue
            assert type(got) is type(want)
            if isinstance(want, LaurentSeries):
                assert (got.valuation, got.order, got.coeffs) == (
                    want.valuation, want.order, want.coeffs)
            else:
                assert got == want

    @given(st.one_of(level1_series, level2_series), st.one_of(level1_series, level2_series))
    @example(LaurentSeries(0, (Rat(1), LaurentSeries.zero(), Rat(2)), level=2),
             LaurentSeries.constant(Rat(3), 2))
    @example(LaurentSeries(0, (Rat(1), LaurentSeries.zero(2), Rat(2)), level=3),
             LaurentSeries.constant(Rat(3), 3))
    @settings(max_examples=200)
    def test_product_commutes_field_for_field(self, s, t):
        # a coefficient's type follows the ring, whichever factor is on the left
        assert fields(s * t) == fields(t * s)


def fields(x):
    """Everything a value holds: level, valuation, order and each coefficient's type and value."""
    if isinstance(x, LaurentSeries):
        return ("series", x.level, x.valuation, x.order, tuple(fields(c) for c in x.coeffs))
    return (type(x), x)


def outcome(fn, *args):
    """``fields`` of ``fn(*args)``, or the type and message of what it raises."""
    try:
        return fields(fn(*args))
    except ArithmeticError as exc:
        return type(exc), str(exc)


# Each operator with a rational ``c``, beside the computation it replaces: ``c``
# lifted to the constant series ``C`` of the series' level.  Python runs a
# reflected operator with the series on the left, so ``c * s`` was ``s * C``
# and ``c - s`` was ``-s + C``.  The comment names a mutation of exactnum.py
# that the property fails on.
RATIONAL_OPERATIONS = {
    # a truncated zero scaled to the exact zero
    "s*c": (lambda s, c: s * c, lambda s, C: s * C),
    # a level-2 exact-zero coefficient scaled to Rat(0), not to an exact-zero series
    "c*s": (lambda s, c: c * s, lambda s, C: s * C),
    # the fast path taken when power 0 lies just past the coefficients
    "s+c": (lambda s, c: s + c, lambda s, C: s + C),
    # the coefficients besides power 0 kept as they are (an int stays an int)
    "c+s": (lambda s, c: c + s, lambda s, C: s + C),
    # a zero c on the fast path, which re-adds zero to the other coefficients
    "s-c": (lambda s, c: s - c, lambda s, C: s - C),
    # a zero series that keeps the valuation it was made with
    "c-s": (lambda s, c: c - s, lambda s, C: -s + C),
    # s / 0 without its PoleError check
    "s/c": (lambda s, c: s / c, lambda s, C: s * C.invert()),
    # a scaled level-1 series returned exact, its order dropped
    "c/s": (lambda s, c: c / s, lambda s, C: s.invert() * C),
}

operands = st.one_of(st.just(Rat(0)), rationals)


class TestRationalOperands:
    """A rational operand acts on the coefficients exactly as its constant series would."""

    @pytest.mark.parametrize("op", list(RATIONAL_OPERATIONS))
    @given(s=st.one_of(level1_series, level2_series), c=operands)
    @example(s=LaurentSeries(1, (), order=4), c=Rat(3))
    @example(s=LaurentSeries(-1, (Rat(2), 7), order=1), c=Rat(5, 2))
    @example(s=LaurentSeries(-1, (Rat(2), 7), order=1), c=Rat(0))
    @example(s=LaurentSeries(-1, (Rat(2),), order=0), c=Rat(5, 2))
    @example(s=LaurentSeries(-1, (Rat(1), LaurentSeries.zero(), Rat(2)), level=2), c=Rat(-3))
    @example(s=LaurentSeries(-2, (Rat(1), LaurentSeries(0, (), order=1), LaurentSeries(
        -1, (Rat(2), Rat(1)), order=2), Rat(4)), order=2, level=2), c=Rat(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_lifted_operand(self, op, s, c):
        fast, lifted = RATIONAL_OPERATIONS[op]
        want = outcome(lifted, s, LaurentSeries.constant(c, s.level))
        assert outcome(fast, s, c) == want, (op, s, c)

    @given(st.one_of(level1_series, level2_series))
    @settings(max_examples=60, deadline=None)
    def test_division_by_zero_raises(self, s):
        with pytest.raises(PoleError, match="division by exact zero series"):
            s / Rat(0)


def small_poly(lo, hi):
    return st.lists(st.integers(min_value=lo, max_value=hi), min_size=1, max_size=3)


class TestSympyOracle:
    """Limits and residues of small rational functions of eps, against sympy."""

    @given(small_poly(-5, 5), small_poly(-5, 5).filter(lambda d: d[0] != 0),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_limit_and_residue(self, num, den, shift):
        sympy = pytest.importorskip("sympy")
        e = sympy.Symbol("e")
        expr = sum(c * e**i for i, c in enumerate(num)) / (
            e**shift * sum(c * e**i for i, c in enumerate(den)))
        value = series(0, num) / series(shift, den)

        residue = value.coeff(-1)
        assert sympy.Rational(residue.numerator, residue.denominator) == sympy.residue(
            expr, e, 0)

        want = sympy.limit(expr, e, 0, "+")
        if want.is_finite:
            got = take_limit(value)
            assert sympy.Rational(got.numerator, got.denominator) == want
        else:
            with pytest.raises(SingularPartError):
                take_limit(value)
