"""Exact scalars and truncated Laurent series."""

import functools
import math
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhc.exactnum import (
    INVERT_TERMS,
    LaurentSeries,
    PoleError,
    Rat,
    SingularPartError,
    WindowError,
    _plus,
    _ratio,
    _times,
    eps,
    invert_window,
    scalar_format,
    scalar_parse,
    take_limit,
)


@functools.cache
def over(d):
    """Rat(n, d) for -50 d <= n <= 50 d, one strategy per denominator."""
    return st.builds(Rat, st.integers(-50 * d, 50 * d), st.just(d))


# The values of st.fractions(-50, 50, max_denominator=12), which builds a new
# numerator strategy on every draw: a denominator, then a numerator over it.
rationals = st.integers(1, 12).flatmap(over)


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
level3_series = st.builds(
    truncated, st.integers(min_value=-2, max_value=2),
    st.lists(st.one_of(scalars, level1_series, level2_series), max_size=3), windows, st.just(3))

rational_coefficients = st.one_of(rationals, st.just(Rat(0)))
rational_level1 = st.builds(
    truncated, st.integers(min_value=-3, max_value=3), st.lists(rational_coefficients, max_size=5),
    windows)
rational_level2 = st.builds(
    truncated, st.integers(min_value=-2, max_value=2),
    st.lists(st.one_of(rational_coefficients, rational_level1), max_size=4), windows, st.just(2))
rational_series = st.one_of(rational_level1, rational_level2)


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
    # int coefficients: the truncated zero's sum with 1 * 1 holds an int unless 1 is lifted as Rat
    @example(LaurentSeries(0, (1, 1), level=2),
             LaurentSeries(0, (1, LaurentSeries(0, (), order=1)), level=2))
    @settings(max_examples=200)
    def test_product_commutes_field_for_field(self, s, t):
        # a coefficient's type follows the ring, whichever factor is on the left
        assert fields(s * t) == fields(t * s)


def reference_inverse(s, window):
    """``s.invert()`` by the recurrence over its coefficients, whatever their ring.

    ``d_0 = 1/c_0`` and ``d_k = -(1/c_0) sum_{i>=1} c_i d_(k-i)``, to as many
    terms as `invert` keeps at ``window``.
    """
    v, cs = s.valuation, s.coeffs
    if s.order == math.inf:
        m = math.inf if len(cs) == 1 else max(len(cs), window)
        order = -v + m
    else:
        m = int(s.order) - v
        order = int(s.order) - 2 * v
    c0inv = cs[0].invert() if isinstance(cs[0], LaurentSeries) else Rat(1) / cs[0]
    if m == math.inf:
        return LaurentSeries(-v, (c0inv,), math.inf, s.level)
    d = [c0inv]
    for k in range(1, m):
        acc = Rat(0)
        for i in range(1, min(k, len(cs) - 1) + 1):
            acc = acc + cs[i] * d[k - i]
        d.append(-(c0inv * acc))
    return LaurentSeries(-v, d, order, s.level)


class TestInverseReference:
    """`invert` against the recurrence over coefficients, field for field.

    A series of ``Rat`` coefficients inverts in integers at any level; an
    ``int`` coefficient or a series coefficient keeps the ring recurrence and
    its types.
    """

    @pytest.mark.parametrize("window", [None, 2])
    @given(s=st.one_of(rational_level1, level1_series, level2_series))
    @example(s=series(0, [-2, Rat(1, 3), 5]))  # odd window, negative n_0: the sign fix
    @example(s=series(-1, [Rat(-3, 4), Rat(5, 6)]))
    @example(s=series(2, [Rat(-7, 3)]))  # one exact term inverts exactly
    @example(s=truncated(1, [Rat(-2, 9), Rat(4, 15), Rat(0), Rat(1, 2)], 3))
    @example(s=truncated(0, [Rat(3, 2), Rat(0), Rat(0)], 4))  # zeros past the last term
    @example(s=LaurentSeries(0, (Rat(2), 7)))
    @example(s=LaurentSeries(-1, (truncated(0, [Rat(-2), Rat(1, 3)], 2), Rat(3, 5)), level=2))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_recurrence(self, window, s):
        assume(not s.is_zero())
        if window is None:
            got, want = outcome(LaurentSeries.invert, s), outcome(reference_inverse, s, INVERT_TERMS)
        else:
            with invert_window(window):
                got, want = outcome(LaurentSeries.invert, s), outcome(reference_inverse, s, window)
        assert got == want, (s, window)

    @given(rational_level1)
    @settings(max_examples=100)
    def test_integer_inverse_is_reduced_over_a_positive_denominator(self, s):
        assume(not s.is_zero())
        inv = s.invert()
        assert inv._den > 0 and math.gcd(inv._den, *inv._nums) == 1


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

    @given(st.one_of(level1_series, level2_series, level3_series))
    @example(LaurentSeries(0, (), order=3))
    @example(LaurentSeries(0, (), order=-1, level=2))
    @example(LaurentSeries(-1, (Rat(2), 7), order=1))
    @example(LaurentSeries(1, (Rat(1), LaurentSeries(0, (), order=2), 4), level=3))
    @settings(max_examples=150, deadline=None)
    def test_an_exact_zero_adds_as_the_zero_series(self, s):
        want = fields(s + LaurentSeries.zero(s.level))
        assert fields(s + Rat(0)) == want and fields(Rat(0) + s) == want
        assert s + Rat(0) is s and Rat(0) + s is s  # nothing is lifted or copied

    @given(st.one_of(level1_series, level2_series))
    @settings(max_examples=60, deadline=None)
    def test_division_by_zero_raises(self, s):
        with pytest.raises(PoleError, match="division by exact zero series"):
            s / Rat(0)


class TestNumberProtocol:
    """A series is its own numerator over 1, and an ``int`` operand scales as the ``Rat`` it equals."""

    @given(st.one_of(level1_series, level2_series, level3_series))
    @settings(max_examples=60, deadline=None)
    def test_a_series_is_its_own_numerator_over_one(self, s):
        assert s.numerator is s
        assert s.denominator == 1 and type(s.denominator) is int

    @given(s=st.one_of(level1_series, level2_series, level3_series),
           n=st.integers(min_value=-9, max_value=9))
    @example(s=LaurentSeries(1, (), order=4), n=3)  # a truncated zero
    @example(s=LaurentSeries.zero(2), n=5)  # an exact zero
    @example(s=LaurentSeries(-1, (Rat(2), 7), order=1), n=0)  # an int coefficient
    @example(s=LaurentSeries(-1, (4, Rat(1, 3)), level=2), n=-2)
    @example(s=LaurentSeries(1, (Rat(1), LaurentSeries(0, (), order=2), 4), level=3), n=-2)
    @settings(max_examples=150, deadline=None)
    def test_an_int_operand_scales_as_its_rat(self, s, n):
        want = fields(s * Rat(n))
        assert fields(s * LaurentSeries.constant(Rat(n), s.level)) == want
        assert fields(s * n) == want and fields(n * s) == want

    @given(s=st.one_of(level1_series, level2_series, level3_series),
           n=st.integers(min_value=-9, max_value=9))
    @example(s=LaurentSeries(1, (), order=4), n=3)  # a truncated zero
    @example(s=LaurentSeries.zero(2), n=5)  # an exact zero
    @example(s=LaurentSeries(-1, (Rat(2), 7), order=1), n=-1)  # an int coefficient
    @example(s=LaurentSeries(-1, (4, Rat(1, 3)), level=2), n=2)
    @example(s=LaurentSeries(1, (Rat(1), LaurentSeries(0, (), order=2), 4), level=3), n=-2)
    @settings(max_examples=150, deadline=None)
    def test_an_int_operand_adds_as_its_rat(self, s, n):
        want = fields(s + Rat(n))
        assert fields(s + LaurentSeries.constant(Rat(n), s.level)) == want
        assert fields(s + n) == want and fields(n + s) == want
        assert s + 0 is s and 0 + s is s  # an int zero is not lifted either


class TestFractionHelpers:
    """`_times`, `_plus` and `_ratio` keep a numerator over an ``int`` denominator."""

    s = LaurentSeries(-1, (Rat(1, 2), Rat(3)))

    def test_times_multiplies_numerators_and_denominators(self):
        assert _times(3, 4, (Rat(1, 2), 5)) == (15, 8)
        num, den = _times(3, 4, (Rat(1, 2), self.s))
        assert den == 8 and fields(num) == fields(self.s * 3)

    def test_plus_adds_unreduced(self):
        assert _plus(1, 6, 1, 6) == (2, 6)  # equal denominators: the numerators alone
        assert _plus(1, 6, 1, 4) == (5, 12)  # over gcd(6, 4) = 2
        num, den = _plus(self.s, 6, 1, 4)
        assert den == 12 and fields(num) == fields(self.s * 2 + 3)

    def test_ratio_divides_once(self):
        got = _ratio(2, 6)
        assert type(got) is Rat and got == Rat(1, 3)
        assert _ratio(self.s, 1) is self.s
        assert fields(_ratio(self.s, 4)) == fields(self.s * Rat(1, 4))


# A plain-Fraction model of the series ring on `fields` tuples: a series is
# ("series", level, valuation, order, coefficients) and a scalar (Rat, value).
# It spells out the rules a LaurentSeries keeps, whatever it holds inside.

def model_series(level, valuation, order, cs):
    """A model series cut below ``order`` and stripped of exact zeros at either end."""
    cs = list(cs)
    if order != math.inf:
        cs = cs[:max(0, int(order) - valuation)]
    while cs and model_exact_zero(cs[0]):
        cs.pop(0)
        valuation += 1
    while cs and model_exact_zero(cs[-1]):
        cs.pop()
    return ("series", level, valuation if cs else 0, order, tuple(cs))


def model_exact_zero(x):
    return x[4] == () and x[3] == math.inf if x[0] == "series" else x[1] == 0


def model_lift(x, level):
    """``x`` as a series of ``level``: a constant series unless it is one already."""
    return x if x[0] == "series" and x[1] == level else model_series(level, 0, math.inf, [x])


def model_coeff(s, k):
    _, _, v, _, cs = s
    return cs[k - v] if v <= k < v + len(cs) else (Rat, Fraction(0))


def model_add(a, b):
    level = max(x[1] if x[0] == "series" else 0 for x in (a, b))
    if not level:
        return (Rat, a[1] + b[1])
    a, b = model_lift(a, level), model_lift(b, level)
    order = min(a[3], b[3])
    lo = min(a[2], b[2])
    hi = min(max(a[2] + len(a[4]), b[2] + len(b[4])), order)
    return model_series(level, lo, order, [model_add(model_coeff(a, k), model_coeff(b, k))
                                           for k in range(lo, int(hi))])


def model_mul(a, b):
    level = max(x[1] if x[0] == "series" else 0 for x in (a, b))
    if not level:
        return (Rat, a[1] * b[1])
    a, b = model_lift(a, level), model_lift(b, level)
    if model_exact_zero(a) or model_exact_zero(b):
        return model_series(level, 0, math.inf, [])
    low = [s[3] if not s[4] else s[2] for s in (a, b)]
    order = min(low[0] + b[3], low[1] + a[3])
    if not a[4] or not b[4]:
        return model_series(level, 0, order, [])
    cs = []
    for k in range(len(a[4]) + len(b[4]) - 1):
        c = (Rat, Fraction(0))
        for i, x in enumerate(a[4]):
            if 0 <= k - i < len(b[4]):
                c = model_add(c, model_mul(x, b[4][k - i]))
        cs.append(c)
    return model_series(level, a[2] + b[2], order, cs)


def model_neg(a):
    if a[0] != "series":
        return (Rat, -a[1])
    return model_series(a[1], a[2], a[3], [model_neg(c) for c in a[4]])


# Each operation beside its model; ``t`` is a series or a rational.
MODEL_OPERATIONS = {
    "s+t": (lambda s, t: s + t, model_add),
    "t+s": (lambda s, t: t + s, lambda s, t: model_add(t, s)),
    "s-t": (lambda s, t: s - t, lambda s, t: model_add(s, model_neg(t))),
    "t-s": (lambda s, t: t - s, lambda s, t: model_add(t, model_neg(s))),
    "s*t": (lambda s, t: s * t, model_mul),
    "t*s": (lambda s, t: t * s, lambda s, t: model_mul(t, s)),
    "-s": (lambda s, t: -s, lambda s, t: model_neg(s)),
}


def flat_rat_series(level):
    """Series of ``level`` whose coefficients are ``Rat`` or zero, none of them a series."""
    return st.builds(truncated, st.integers(min_value=-3, max_value=3),
                     st.lists(rational_coefficients, max_size=5), windows, st.just(level))


# per level: the series s, and its operand t, which is a series of the same
# level (two branches), of the other level, or a rational
rat_pair_levels = st.sampled_from([2, 3])
rat_pair_parts = {level: (flat_rat_series(level), st.one_of(
    flat_rat_series(level), flat_rat_series(level), flat_rat_series(5 - level),
    rational_coefficients)) for level in (2, 3)}


@st.composite
def all_rat_pairs(draw):
    """A series of level 2 or 3 whose coefficients are all ``Rat``, and an operand ``t``.

    ``t`` is such a series of the same level, or of the other one, or a
    rational.
    """
    s, t = rat_pair_parts[draw(rat_pair_levels)]
    return draw(s), draw(t)


def window_context(window):
    """The default inverse window for None, else `invert_window` of ``window``."""
    return nullcontext() if window is None else invert_window(window)


# Each operation with a series ``s`` of ``Rat`` coefficients, at any level,
# that holds its integer form and gives a series in integer form.
INTEGER_FORM_OPERATIONS = {
    "s+t": lambda s, t: s + t,
    "s-t": lambda s, t: s - t,
    "s*t": lambda s, t: s * t,
    "-s": lambda s, t: -s,
    "s*Rat": lambda s, t: s * Rat(-6, 4),
    "s+Rat": lambda s, t: s + Rat(1, 3),
    "invert": lambda s, t: s.invert(),
}


class TestIntegerForm:
    """Series of ``Rat`` coefficients, held as integers at every level, against a Fraction model.

    Scaling and adding a rational (``_scaled``, ``_plus``) are the operations
    with a rational ``t``; a coefficient that is a series, or an ``int``,
    keeps the ring path, whose coefficient operations are these one level
    down.
    """

    @pytest.mark.parametrize("op", list(MODEL_OPERATIONS))
    @given(s=rational_series, t=st.one_of(rational_series, rational_coefficients))
    @example(s=LaurentSeries(-1, (Rat(1, 2), Rat(1, 3))), t=Rat(-1, 2))  # power 0 cancels
    @example(s=LaurentSeries(0, (Rat(1, 6), Rat(5, 6))), t=LaurentSeries(0, (Rat(-1, 6),)))
    @example(s=LaurentSeries(0, (Rat(1, 4), Rat(1, 2)), 2), t=Rat(4))  # 4 clears the denominator
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_model(self, op, s, t):
        fast, model = MODEL_OPERATIONS[op]
        assert fields(fast(s, t)) == model(fields(s), fields(t)), (op, s, t)

    @given(rational_level1, rational_level1)
    @settings(max_examples=60)
    def test_numerators_are_reduced_over_a_positive_denominator(self, s, t):
        for x in (s * t, s + t, s - t, s * Rat(-6, 4), s + Rat(1, 3)):
            assert x._den > 0 and math.gcd(x._den, *x._nums) == 1
            assert fields(x) == fields(LaurentSeries(x.valuation, x.coeffs, x.order))

    def test_coefficients_are_built_once_when_read(self):
        prod = series(0, [Rat(1, 2), Rat(2, 3)]) * series(-1, [Rat(3), Rat(1, 5)])
        assert prod._cs is None
        assert not prod.is_zero() and prod._width() == 3
        assert LaurentSeries(0, (Rat(0), prod, LaurentSeries.zero()), level=2).valuation == 1
        assert prod._cs is None  # zero tests and trimming read the integers
        cs = prod.coeffs
        assert prod.coeffs is cs and [*cs] == [Rat(3, 2), Rat(21, 10), Rat(2, 15)]
        assert all(type(c) is Rat for c in cs)

    @pytest.mark.parametrize("window", [None, 2])
    @pytest.mark.parametrize("op", ["s+t", "t+s", "s-t", "s*t", "-s"])
    @given(pair=all_rat_pairs())
    @example(pair=(LaurentSeries(0, (Rat(1, 6), Rat(5, 6)), level=2),
                   LaurentSeries(0, (Rat(-1, 6),), level=2)))  # power 0 cancels
    @example(pair=(LaurentSeries(-1, (Rat(1, 2), Rat(1, 3)), level=3), Rat(-1, 3)))
    @settings(max_examples=100, deadline=None)
    def test_every_level_matches_the_fraction_model(self, window, op, pair):
        s, t = pair
        fast, model = MODEL_OPERATIONS[op]
        with window_context(window):
            assert fields(fast(s, t)) == model(fields(s), fields(t)), (op, s, t)

    @pytest.mark.parametrize("window", [None, 2])
    @given(pair=all_rat_pairs())
    @example(pair=(LaurentSeries(0, (Rat(-2), Rat(1, 3), Rat(5)), level=2), Rat(0)))
    @example(pair=(truncated(1, [Rat(-2, 9), Rat(4, 15), Rat(0), Rat(1, 2)], 3, 3), Rat(0)))
    @settings(max_examples=100, deadline=None)
    def test_every_level_inverts_as_the_recurrence(self, window, pair):
        s, _ = pair
        assume(not s.is_zero())
        with window_context(window):
            want = outcome(reference_inverse, s, INVERT_TERMS if window is None else window)
            assert outcome(LaurentSeries.invert, s) == want, s

    @pytest.mark.parametrize("op", list(INTEGER_FORM_OPERATIONS))
    @given(pair=all_rat_pairs())
    @settings(max_examples=60, deadline=None)
    def test_every_level_holds_reduced_numerators_over_a_positive_denominator(self, op, pair):
        s, t = pair
        assume(not isinstance(t, LaurentSeries) or t.level == s.level)
        assume(op != "invert" or not s.is_zero())
        assert s._nums is not None
        for window in (None, 2):
            with window_context(window):
                x = INTEGER_FORM_OPERATIONS[op](s, t)
            assert x.level == s.level and x._nums is not None
            assert x._den > 0 and math.gcd(x._den, *x._nums) == 1
            assert fields(x) == fields(LaurentSeries(x.valuation, x.coeffs, x.order, x.level))

    @pytest.mark.parametrize("level", [2, 3])
    def test_a_series_or_int_coefficient_keeps_the_ring_path(self, level):
        flat = LaurentSeries(0, (Rat(2), Rat(1, 3)), level=level)
        inner = LaurentSeries(0, (Rat(1, 2), Rat(3)), level=level - 1)
        assert flat._nums is not None
        for s in (LaurentSeries(0, (inner, Rat(5)), level=level),
                  LaurentSeries(-1, (Rat(2), 7), level=level)):
            assert s._nums is None
            for op in ("s+t", "t+s", "s*t", "t*s"):
                fast, model = MODEL_OPERATIONS[op]
                assert fields(fast(s, flat)) == model(fields(s), fields(flat)), (op, s)
        s = LaurentSeries(-1, (Rat(2), 7), level=level)
        assert fields(s + LaurentSeries(0, (3,), level=level)) == (
            "series", level, -1, math.inf, ((Rat, Rat(2)), (int, 10)))

    def test_an_int_coefficient_keeps_the_ring_path(self):
        s = LaurentSeries(-1, (Rat(2), 7))
        assert s._nums is None
        assert fields(Rat(5, 2) + s) == ("series", 1, -1, math.inf,
                                          ((Rat, Rat(2)), (Rat, Rat(19, 2))))
        assert fields(s + LaurentSeries(0, (3,))) == (
            "series", 1, -1, math.inf, ((Rat, Rat(2)), (int, 10)))


class TestInexactValuesAreRejected:
    """A float or complex value raises the same TypeError in a series as in a Kernel."""

    @pytest.mark.parametrize("build", [
        lambda: eps() + 0.5,
        lambda: 0.5 + eps(),
        lambda: eps(level=2) * 0.5,
        lambda: eps() - 2j,
        lambda: LaurentSeries(0, (Rat(1), 0.25)),
        lambda: scalar_format(0.1),
    ], ids=["s+float", "float+s", "level2*float", "s-complex", "coefficient", "scalar_format"])
    def test_raises_type_error(self, build):
        with pytest.raises(TypeError, match=r"^inexact value \S+ \((float|complex)\); use an"):
            build()


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
