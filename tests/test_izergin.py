"""Izergin determinant evaluators against an independent reference."""

import functools
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhc.izergin
from qhc.exactnum import (
    INVERT_TERMS, LaurentSeries, PoleError, Rat, WindowError, eps, invert_window, take_limit,
)
from qhc.highest import REPRESENTATIONS, hc, hc_red1_pair
from qhc.izergin import (
    Kernel,
    det,
    izergin,
    izergin_side,
    lemma_partition_sum,
    mult_pole_limit,
)
from qhc.params import sample_generic
from qhc.verify import run_suite


def reference_izergin(q, xs, ys):
    """Textbook determinant form, computed independently with Fraction.

    prefactor det[ (q - 1/q) / ((x_i - y_j)(q x_i - y_j / q)) ] with
    prefactor = prod_{i,j} (q x_i - y_j / q) / prod_{i<j} (x_i - x_j)(y_j - y_i),
    expanding the determinant as a permutation sum.
    """
    q = Fraction(q)
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    k = len(xs)
    if k == 0:
        return Fraction(1)
    pref = Fraction(1)
    for x in xs:
        for y in ys:
            pref *= q * x - y / q
    for i in range(k):
        for j in range(i + 1, k):
            pref /= (xs[i] - xs[j]) * (ys[j] - ys[i])
    total = Fraction(0)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i, j in enumerate(perm):
            term *= (q - 1 / q) / ((xs[i] - ys[j]) * (q * xs[i] - ys[j] / q))
        total += term
    return pref * total


def as_rat(f):
    return Rat(f.numerator, f.denominator)


class TestKernelFunctions:
    def test_f_example(self):
        assert Kernel(Rat(2)).f(Rat(3), Rat(1)) == Rat(11, 4)

    def test_g_example(self):
        assert Kernel(Rat(2)).g(Rat(3), Rat(1)) == Rat(3, 4)

    def test_mq_signs(self):
        kern = Kernel(Rat(2))
        assert kern.mq(2) == Rat(4)
        assert kern.mq(1) == Rat(-2)
        assert kern.mq(-1) == Rat(-1, 2)
        assert kern.mq(0) == Rat(1)

    @pytest.mark.parametrize("q", [Rat(2), Rat(-5, 3), Rat(1, 7)])
    def test_mq_is_the_product_of_its_factors(self, q):
        kern = Kernel(q)
        for e in range(-6, 7):
            want = Rat(1)
            for _ in range(abs(e)):
                want = want * (-q if e > 0 else -1 / q)
            got = kern.mq(e)
            assert got == want and type(got) is Rat

    def test_degenerate_q_rejected(self):
        for q in (0, 1, -1):
            with pytest.raises(ValueError):
                Kernel(Rat(q))


class TestDeterminant:
    def test_two_by_two(self):
        rows = [[Rat(1), Rat(2)], [Rat(3), Rat(4)]]
        assert det(rows) == Rat(-2)

    def test_singular(self):
        rows = [[Rat(1), Rat(2)], [Rat(2), Rat(4)]]
        assert det(rows) == Rat(0)

    def test_empty_is_one(self):
        assert det([]) == Rat(1)

    def test_row_swap_changes_sign(self):
        rows = [[Rat(0), Rat(1)], [Rat(1), Rat(0)]]
        assert det(rows) == Rat(-1)

    def test_exact_zero_column_gives_zero(self):
        rows = [[LaurentSeries.zero(), Rat(1)], [Rat(0), Rat(2)]]
        assert det(rows) == Rat(0)

    def test_truncated_zero_column_raises(self):
        rows = [[LaurentSeries(0, (), order=2), Rat(1)],
                [LaurentSeries(0, (), order=3), Rat(2)]]
        with pytest.raises(WindowError):
            det(rows)

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, 2, 3], [4, 5, 6]], id="2x3"),
        pytest.param([[1, 2], [3]], id="ragged"),
        pytest.param([[1], [2, 3]], id="ragged-first-short"),
    ])
    def test_non_square_rejected(self, rows):
        with pytest.raises(ValueError, match="square"):
            det(rows)

    def test_int_entries_are_exact(self):
        got = det([[1, 2], [3, 4]])
        assert got == Rat(-2) and type(got) is Rat
        got = det([[1, 2], [3, eps()]])  # an int pivot over a series row
        assert got.coeff(0) == -6 and all(type(c) is Rat for c in got.coeffs)

    def test_truncated_zero_entry_is_not_skipped(self):
        # det [[1, 1], [O(e^2), 1]] = 1 + O(e^2): only known below e^2
        rows = [[Rat(1), Rat(1)], [LaurentSeries(0, (), order=2), Rat(1)]]
        got = det(rows)
        assert isinstance(got, LaurentSeries) and got.order == 2


def divided_det(rows):
    """`det` with each row dividing by its pivot: the elimination it replaces."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, result = 1, Rat(1)
    for k in range(n):
        piv = min(range(k, n), key=lambda i: pivot_key(m[i][k]))
        if pivot_key(m[piv][k]) == math.inf:
            if all(exact_zero(m[i][k]) for i in range(k, n)):
                return Rat(0)
            raise WindowError("pivot column is zero only within its truncation window")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        result = result * m[k][k]
        for i in range(k + 1, n):
            if not exact_zero(m[i][k]):
                factor = m[i][k] / m[k][k]
                for j in range(k + 1, n):
                    m[i][j] = m[i][j] - factor * m[k][j]
    return result if sign == 1 else -result


def exact_zero(x):
    return x.is_zero() and x.is_exact() if isinstance(x, LaurentSeries) else x == 0


def pivot_key(x):
    if isinstance(x, LaurentSeries):
        return math.inf if x.is_zero() else x.valuation
    return math.inf if x == 0 else 0


def fields(x):
    if isinstance(x, LaurentSeries):
        return ("series", x.level, x.valuation, x.order, tuple(fields(c) for c in x.coeffs))
    return (type(x), x)


def outcome(fn, *args):
    try:
        return fields(fn(*args))
    except ArithmeticError as exc:
        return type(exc), str(exc)


@functools.cache
def over(d):
    """Rat(n, d) for -9 d <= n <= 9 d, one strategy per denominator."""
    return st.builds(Rat, st.integers(-9 * d, 9 * d), st.just(d))


# The values of st.fractions(-9, 9, max_denominator=5), which builds a new
# numerator strategy on every draw: a denominator, then a numerator over it.
rats = st.integers(1, 5).flatmap(over)
level1_entries = st.builds(
    lambda v, cs, extra: LaurentSeries(v, cs, math.inf if extra is None else v + extra),
    st.integers(min_value=-2, max_value=2), st.lists(rats, max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
rational_or_level1 = st.one_of(rats, st.just(Rat(0)), level1_entries)
entries = st.one_of(
    rational_or_level1,
    st.builds(lambda a, b: a + b * eps(level=2), rational_or_level1, rats))


@functools.cache
def between(lo, hi):
    """The integers lo..hi, one strategy per range."""
    return st.integers(min_value=lo, max_value=hi)


@functools.cache
def lists_of(elements, lo, hi, unique=False):
    """Lists of lo..hi draws of ``elements``, one strategy per arguments."""
    return st.lists(elements, min_size=lo, max_size=hi, unique=unique)


def square(entry):
    return between(1, 4).flatmap(lambda n: lists_of(lists_of(entry, n, n), n, n))


class TestDeterminantInversesOnce:
    """`det` inverts each series pivot once and gives what dividing by it per row gives."""

    @given(square(entries))
    @settings(max_examples=200, deadline=None)
    def test_matches_dividing_per_row(self, rows):
        assert outcome(det, rows) == outcome(divided_det, rows)

    @given(square(rational_or_level1))
    @settings(max_examples=100, deadline=None)
    def test_at_most_one_inverse_per_pivot_column(self, rows):
        inverted = []
        invert = LaurentSeries.invert

        def counting(self):
            inverted.append(self)
            return invert(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LaurentSeries, "invert", counting)
            outcome(det, rows)
        assert len(inverted) <= len(rows) - 1
        assert len({id(s) for s in inverted}) == len(inverted)

    def test_a_dense_series_matrix_inverts_n_minus_1_pivots(self, monkeypatch):
        e = eps()
        # a Hilbert matrix plus eps times an antisymmetric one: every pivot is a unit
        rows = [[Rat(1, i + j + 1) + Rat(j - i) * e for j in range(4)] for i in range(4)]
        calls = []
        invert = LaurentSeries.invert
        monkeypatch.setattr(LaurentSeries, "invert", lambda s: calls.append(s) or invert(s))
        got = det(rows)
        assert len(calls) == 3
        monkeypatch.undo()
        assert fields(got) == fields(divided_det(rows))


small_ints = st.integers(min_value=-9, max_value=9)
rational_entries = st.one_of(rats, st.just(Rat(0)), small_ints)
booleans = st.booleans()
either = st.sampled_from((0, 1))  # the index that sampled_from of a pair draws


@functools.cache
def matrix_rows(n):
    """Rows of n rationals and ints, or of n ints."""
    return st.one_of(lists_of(rational_entries, n, n), lists_of(small_ints, n, n))


row_scales = st.one_of(rats, small_ints)


@st.composite
def rational_matrices(draw):
    """Square matrices of rationals and ints up to 6x6, some singular, some needing swaps."""
    n = draw(between(1, 6))
    rows = draw(lists_of(matrix_rows(n), n, n))
    if n > 1 and draw(booleans):  # one row a multiple of another: singular
        i, j = draw(lists_of(between(0, n - 1), 2, 2, unique=True))
        c = draw(row_scales)
        rows[i] = [c * x for x in rows[j]]
    for r in rows[:draw(between(0, n))]:
        r[0] = 0  # zero leading entries: a row swap, or a zero column
    return rows


class TestRationalDeterminant:
    """At rational and integer matrices `det` gives what dividing gives."""

    @given(rational_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_dividing_per_row(self, rows):
        as_rats = [[Rat(x) for x in r] for r in rows]
        assert outcome(det, rows) == outcome(divided_det, as_rats)

    def test_zero_pivots_swap_rows_at_every_step(self):
        rows = [[0, 0, 1], [0, 2, 0], [3, 0, 0]]
        assert outcome(det, rows) == (Rat, Rat(-6))


class TestIzergin:
    def test_k0_is_one(self):
        assert izergin(Kernel(Rat(2)), (), ()) == Rat(1)

    def test_k1_closed_form(self):
        kern = Kernel(Rat(2))
        x, y = Rat(3), Rat(5)
        assert izergin(kern, (x,), (y,)) == kern.g(x, y)

    def test_frozen_value_k2(self):
        # independently derived with the reference form above
        kern = Kernel(Rat(2))
        assert izergin(kern, (Rat(2), Rat(3)), (Rat(5), Rat(7))) == Rat(33, 128)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference(self, k):
        for seed in range(3):
            (xs, ys), q = sample_generic((k, k), seed)
            got = izergin(Kernel(q), xs, ys)
            want = as_rat(reference_izergin(q, xs, ys))
            assert got == want

    def test_left_right_prefactors(self):
        (xs, ys), q = sample_generic((2, 2), 9)
        kern = Kernel(q)
        base = izergin(kern, xs, ys)
        assert izergin_side(kern, "l", xs, ys) == xs[0] * xs[1] * base
        assert izergin_side(kern, "r", xs, ys) == ys[0] * ys[1] * base
        with pytest.raises(ValueError):
            izergin_side(kern, "m", xs, ys)

    @given(st.integers(min_value=0, max_value=10**5))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_under_permutation(self, seed):
        (xs, ys), q = sample_generic((2, 2), seed)
        kern = Kernel(q)
        assert izergin(kern, xs, ys) == izergin(kern, xs[::-1], ys[::-1])


class TestPartitionSum:
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("m1,m2", [(1, 1), (2, 1), (1, 2)])
    def test_all_three_forms_agree(self, side, m1, m2):
        (gamma, alpha, beta), q = sample_generic((m1 + m2, m1, m2), 13)
        lhs, rhs1, rhs2 = lemma_partition_sum(Kernel(q), side, gamma, alpha, beta)
        assert lhs == rhs1
        assert lhs == rhs2


class TestMultiplePole:
    @pytest.mark.parametrize("side", ["l", "r"])
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
    def test_limit_matches_product_form(self, side, n, m):
        (xs, ys, zs), q = sample_generic((n, n, m), 17)
        lhs, rhs = mult_pole_limit(Kernel(q), side, xs, ys, zs)
        assert lhs == rhs

    def test_simple_pole_residue_structure(self):
        # K_1(z|z') behaves like g(z, z') with a first-order pole at z' = z
        kern = Kernel(Rat(2))
        z = Rat(3)
        v = izergin(kern, (z,), (z + eps(),))
        assert v.valuation == -1
        assert v.coeff(-1) == -(kern.q - kern.qinv)

    def test_benign_special_point(self):
        # q x - y / q = 0 must evaluate cleanly in the pole-minimal form
        kern = Kernel(Rat(2))
        x = Rat(3)
        y = kern.q * kern.q * x  # makes q x - y / q vanish
        got = izergin(kern, (x,), (y,))
        assert got == kern.g(x, y)
        assert got == Rat(0) - Rat(3, 2) / (y - x)


def divide(a, b):
    if not isinstance(b, LaurentSeries) and b == 0:
        raise PoleError("vanishing denominator")
    return a / b


def rat_row_izergin(q, xs, ys):
    """K by `det`'s elimination of the pole-minimal rows, rational or series.

    The rows are the pole-minimal rows of K in plain arithmetic, each entry
    the product of its row's q x - q^-1 y but its own, over x - y.  The row
    entries and the prefactor divide as they go, so a pole raises where the
    kernel's must.
    """
    k = len(xs)
    if k == 0:
        return Rat(1)
    qinv = Rat(1) / q
    rows = []
    for x in xs:
        factors = [q * x - qinv * y for y in ys]
        row = []
        for c, y in enumerate(ys):
            num = q - qinv
            for cp, fct in enumerate(factors):
                if cp != c:
                    num = num * fct
            row.append(divide(num, x - y))
        rows.append(row)
    if k == 1:
        return det(rows)
    denom = Rat(1)
    for a in range(k):
        for b in range(a + 1, k):
            denom = denom * (xs[a] - xs[b]) * (ys[b] - ys[a])
    return divide(det(rows), denom)


point_qs = st.sampled_from([Rat(2), Rat(-3), Rat(1, 2), Rat(5, 3), Rat(-2, 7)])
point_values = st.one_of(small_ints, rats)


@st.composite
def rational_points(draw, min_k=0, max_k=4):
    """q and two sets of min_k <= k <= max_k rationals or ints, with benign zeros, poles and repeats."""
    q = draw(point_qs)
    k = draw(between(min_k, max_k))
    xs = draw(lists_of(point_values, k, k))
    ys = draw(lists_of(point_values, k, k))
    if k:
        index = between(0, k - 1)
        for _ in range(draw(between(0, k))):
            ys[draw(index)] = q * q * xs[draw(index)]  # q x - q^-1 y = 0
        if draw(booleans):
            ys[draw(index)] = xs[draw(index)]  # x - y = 0: a pole
        if k > 1 and draw(booleans):
            side = (xs, ys)[draw(either)]
            side[draw(index)] = side[draw(index)]  # a repeat, or none
    return q, tuple(xs), tuple(ys)


nonzero_rats = rats.filter(bool)


series_levels = st.sampled_from([(1,), (2,), (1, 2)])
inverse_windows = st.sampled_from([2, 4, 8])


@st.composite
def series_points(draw, mixed=False):
    """q, two sets of 1 <= k <= 4 values, some of them series, and an inverse window.

    The series are v + a eps, v + b eps_2 and (v + a eps) + b eps_2.  They
    all lie on one side, or on both for ``mixed``.  Their rational parts
    hold benign zeros y = q^2 x and poles x = y, planted before the series
    parts are added, so a series meets a near-zero or a simple pole.
    """
    q = draw(point_qs)
    k = draw(between(1, 4))
    xs = draw(lists_of(point_values, k, k))
    ys = draw(lists_of(point_values, k, k))
    index = between(0, k - 1)
    for _ in range(draw(between(0, k))):
        ys[draw(index)] = q * q * xs[draw(index)]  # q x - q^-1 y = 0
    if draw(booleans):
        ys[draw(index)] = xs[draw(index)]  # x - y = 0
    sides = [xs, ys] if mixed else [(xs, ys)[draw(either)]]
    for side in sides:
        for p in draw(lists_of(index, 1, k, unique=True)):
            for level in draw(series_levels):
                side[p] = side[p] + draw(nonzero_rats) * eps(level=level)
    return q, tuple(xs), tuple(ys), draw(inverse_windows)


def value_or_error(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return exc


def agree(a, b):
    """Whether two values, rational or nested series, agree at every power both know."""
    level = max(x.level if isinstance(x, LaurentSeries) else 0 for x in (a, b))
    if level == 0:
        return a == b
    a, b = (x if isinstance(x, LaurentSeries) and x.level == level
            else LaurentSeries.constant(x, level) for x in (a, b))
    lo = min(a.valuation, b.valuation)
    hi = min(max(a.valuation + len(a.coeffs), b.valuation + len(b.coeffs)), a.order, b.order)
    return all(agree(a.coeff(p), b.coeff(p)) for p in range(lo, int(hi)))


def residue(v):
    return v.coeff(-1) if isinstance(v, LaurentSeries) else Rat(0)


def repeats(vs):
    """Whether two rationals, or two (exact) series, of ``vs`` are equal."""
    return any(isinstance(a, LaurentSeries) == isinstance(b, LaurentSeries) and a == b
               for a, b in itertools.combinations(vs, 2))


def assert_matches_elimination(point):
    """K at a series point agrees with `rat_row_izergin`'s elimination wherever both decide."""
    q, xs, ys, window = point
    with invert_window(window):
        got = value_or_error(Kernel(q).k, xs, ys)
        want = value_or_error(rat_row_izergin, q, xs, ys)
    if isinstance(got, ArithmeticError):
        # A repeated value makes a prefactor factor an exact zero: the
        # expansion divides by it, where elimination meets a truncated
        # zero pivot column first.  The messages may differ.
        assert type(got) is type(want) or (
            isinstance(got, PoleError) and isinstance(want, WindowError)
            and (repeats(xs) or repeats(ys)))
        return
    # elimination may fail to decide where the expansion decides
    assert not isinstance(want, ArithmeticError) or isinstance(want, WindowError)
    if isinstance(want, WindowError):
        return
    assert agree(got, want)
    for read in (take_limit, residue):
        a, b = value_or_error(read, got), value_or_error(read, want)
        if not isinstance(a, WindowError) and not isinstance(b, WindowError):
            assert type(a) is type(b) if isinstance(a, ArithmeticError) else agree(a, b)


class TestSeriesLines:
    """At a point that holds a series K is expanded along its series lines."""

    @given(series_points())
    @settings(max_examples=300, deadline=None)
    def test_matches_elimination(self, point):
        assert_matches_elimination(point)

    @given(series_points(mixed=True))
    @settings(max_examples=100, deadline=None)
    def test_mixed_points_keep_the_elimination(self, point):
        # series on both sides: the row form reads series lines over the
        # table of a fixed set that holds a series
        assert_matches_elimination(point)

    def test_no_k_reaches_det(self, monkeypatch):
        # rational, one-sided, mixed, 1x1 mixed and nested points
        monkeypatch.setattr(qhc.izergin, "det", lambda rows: pytest.fail("det"))
        e, e2 = eps(), eps(level=2)
        q = Rat(3)
        kern = Kernel(q)
        xs, ys = (Rat(2) + e, Rat(5), Rat(7) + e2), (Rat(2), Rat(1, 3), Rat(-4))
        points = [((Rat(5), Rat(7), Rat(1, 2)), ys), (xs, ys), (ys, xs),
                  ((Rat(2) + e, Rat(5)), (Rat(3) + e2, Rat(9))), ((Rat(2) + e,), (Rat(3) + e2,)),
                  ((Rat(2) + e + e2,), (Rat(3),)),
                  ((Rat(2) + e + e2, Rat(5)), (Rat(3), Rat(9) + e))]
        for args in points:
            assert agree(izergin(kern, *args), rat_row_izergin(q, *args))
        assert len(kern._ks) == len(points)

    def test_a_level_2_line_multiplies_level_1_sums(self, monkeypatch):
        # two nested series rows of a 4x4 K, expanded along the level-2 row,
        # then the level-1 row, then the two integer rows: each of the 4
        # level-2 entries multiplies one level-1 sum, each column set's sum
        # is formed once, so a level-2 series meets no minor and only the
        # final Rat scales one
        formed, scaled = [], []
        expansion, mul = qhc.izergin._expansion, LaurentSeries.__mul__

        def recording(rows, sums, cols):
            if cols not in sums:
                formed.append(cols)
            return expansion(rows, sums, cols)

        monkeypatch.setattr(qhc.izergin, "_expansion", recording)

        def counting(s, other):
            if type(other) is Rat:
                scaled.append(s.level)
            return mul(s, other)

        monkeypatch.setattr(LaurentSeries, "__mul__", counting)
        q, e, e2 = Rat(2), eps(), eps(level=2)
        xs = (Rat(3) + e2, Rat(5, 2), Rat(-4) + e, Rat(1, 7))
        ys = (Rat(3), Rat(-1, 3), Rat(9, 5), Rat(11))
        got = izergin(Kernel(q), xs, ys)
        assert len(set(formed)) == len(formed)
        assert Counter(map(len, formed)) == {4: 1, 3: 4, 2: 6, 1: 4, 0: 1}
        assert scaled.count(2) == 1
        assert got.level == 2 and got.valuation == -1
        monkeypatch.undo()
        assert agree(got, rat_row_izergin(q, xs, ys))
        assert take_limit(got * (xs[0] - ys[0])) == take_limit(
            rat_row_izergin(q, xs, ys) * (xs[0] - ys[0]))

    def test_a_nested_point_undecided_at_window_2(self):
        # two level-2 ys with level-1 parts: the expansion knows too few
        # terms for the limit at window 2, and must say so
        e, e2 = eps(), eps(level=2)
        q = Rat(5, 3)
        xs = (Rat(12, 5), Rat(-17, 2), Rat(8), Rat(2))
        ys = (Rat(-7) + Rat(5, 2) * e - Rat(16, 3) * e2, Rat(29, 4) * e + Rat(17, 5) * e2,
              Rat(12, 5) * e2, Rat(-7))
        with invert_window(2), pytest.raises(WindowError):
            take_limit(izergin(Kernel(q), xs, ys))
        for window in (4, 8):
            with invert_window(window):
                got = take_limit(izergin(Kernel(q), xs, ys))
            assert got == Rat(-8179149952167133184, 3249410656700671875)


class TestReciprocalTable:
    """A Kernel inverts each pair's u - v once, for the entries of K and for f alike."""

    q, e, e2 = Rat(5, 3), eps(), eps(level=2)
    lines = (Rat(2) + e, Rat(-7, 2) + Rat(3) * e, Rat(1, 2)), (Rat(4), Rat(1, 3), Rat(2))
    mixed = (Rat(2) + e, Rat(1, 2)), (Rat(4), Rat(1, 3) + e2)

    @staticmethod
    def series_pairs(xs, ys):
        return [(x, y) for x in xs for y in ys
                if isinstance(x, LaurentSeries) or isinstance(y, LaurentSeries)]

    @pytest.mark.parametrize("point", [lines, mixed], ids=["series-lines", "mixed"])
    def test_each_pair_is_inverted_once(self, point, monkeypatch):
        inverted, invert = [], LaurentSeries.invert
        monkeypatch.setattr(LaurentSeries, "invert", lambda s: inverted.append(s) or invert(s))
        xs, ys = point
        kern = Kernel(self.q)
        kern.k(xs, ys)
        pairs = self.series_pairs(xs, ys)
        for x, y in pairs:
            kern.f(x, y)
        counts = Counter(map(id, inverted))
        diffs = [kern._sd(kern.index(x), kern.index(y)) for x, y in pairs]
        assert [counts[id(d)] for d in diffs] == [1] * len(pairs)
        assert max(counts.values()) == 1

    @pytest.mark.parametrize("window, want", [
        # K at the parent commit, whose entries divided by u - v
        (2, ("series", 1, -1, 1, ((Rat, Rat(1199428304896, 7368310546875)),
                                  (Rat, Rat(30043035364573184, 65246389892578125))))),
        (3, ("series", 1, -1, 2, ((Rat, Rat(1199428304896, 7368310546875)),
                                  (Rat, Rat(30043035364573184, 65246389892578125)),
                                  (Rat, Rat(1992479919239733248, 11790954744873046875))))),
    ])
    def test_values_are_those_of_dividing(self, window, want):
        q, (xs, ys) = self.q, self.lines
        with invert_window(window):
            kern = Kernel(q)
            assert fields(kern.k(xs, ys)) == want
            for x, y in self.series_pairs(xs, ys):
                assert fields(kern.f(x, y)) == fields((q * x - (1 / q) * y) / (x - y))

    @pytest.mark.parametrize("order, error", [(math.inf, PoleError), (1, WindowError)],
                             ids=["exact-zero", "truncated-zero"])
    def test_a_zero_difference_raises_at_each_use(self, order, error):
        x = LaurentSeries(0, (Rat(2),), order)  # x - 2 is a zero
        kern = Kernel(self.q)
        for evaluate in (lambda: kern.f(x, Rat(2)), lambda: kern.k((x, Rat(5)), (Rat(2), Rat(7))),
                         lambda: kern.k((x, Rat(5)), (Rat(2), Rat(7) + self.e2))):
            for _ in range(2):
                with pytest.raises(error):
                    evaluate()


class TestIntegerRows:
    """At a rational point K's rows are integers and K is what `Rat` rows give."""

    @given(rational_points())
    @settings(max_examples=400, deadline=None)
    def test_matches_rat_rows(self, point):
        q, xs, ys = point
        kern = Kernel(q)
        for rows in (xs, xs[::-1]):  # the second shares the first's pair table
            assert outcome(kern.k, rows, ys) == outcome(rat_row_izergin, q, rows, ys)

    def test_the_integer_kernel_gets_integer_rows_once_per_evaluated_k(self, monkeypatch):
        # At a rational point no K reaches `det`, every line is of ints, each
        # K is what `Rat` rows give, and each line of a minor table is built
        # once per kernel.
        lines, table_lines = [], Counter()
        int_line = Kernel._int_line

        def recording(kern, l, others, columns):
            row, scale = int_line(kern, l, others, columns)
            lines.append(row)
            table_lines[l, others, columns] += 1
            return row, scale

        monkeypatch.setattr(Kernel, "_int_line", recording)
        monkeypatch.setattr(qhc.izergin, "det", lambda rows: pytest.fail("det"))
        (t, x, s, y), q = sample_generic((3, 3, 3, 3), 7)
        kern = Kernel(q)
        for rep in REPRESENTATIONS:
            for side in ("l", "r"):
                hc(kern, side, t, x, s, y, rep)
        for _ in range(2):  # the second pass only hits the memo
            assert izergin(kern, t[:1], y[:1]) == kern.g(t[0], y[0])
            izergin(kern, (*t, *x), (*s, *y))
        assert {1, 2, 3, 6} <= {len(key) // 2 for key in kern._ks}
        for key, value in kern._ks.items():
            vs = [kern.values[i] for i in key]
            assert value == rat_row_izergin(q, vs[:len(vs) // 2], vs[len(vs) // 2:])
        assert lines and all(type(e) is int for row in lines for e in row)
        assert {(fixed, columns) for _, fixed, columns in table_lines} == set(kern._tables)
        assert {columns for _, columns in kern._tables} == {False, True}
        assert sum(table_lines.values()) == sum(len(rows) for rows, *_ in kern._tables.values())
        assert set(table_lines.values()) == {1}


    @given(rational_points())
    @settings(max_examples=200, deadline=None)
    def test_integer_pair_table_holds_both_pair_quantities(self, point):
        # f reads the same table: A E / (B C), or the row's PoleError at C = 0
        q, xs, ys = point
        kern = Kernel(q)
        outcome(kern.k, xs, ys)
        assert kern._ips or len(xs) == 0
        for (i, j), (a, b, c, e) in list(kern._ips.items()):
            u, v = kern.values[i], kern.values[j]
            assert all(type(n) is int for n in (a, b, c, e))
            assert Rat(a, b) == q * u - v / q
            assert Rat(c, e) == u - v
            for s, t in ((u, v), (v, u)):
                assert outcome(kern.f, s, t) == outcome(divide, q * s - t / q, s - t)

    def test_a_prefactor_pole_raises_after_the_determinant(self, monkeypatch):
        # a repeat among the lines: the lines are built and their determinant
        # formed before the prefactor factor raises
        built, dets = [], []
        int_line, last_column = Kernel._int_line, qhc.izergin._last_column

        def determinant(rows, minors, ls):
            dets.append(ls)
            return last_column(rows, minors, ls)

        monkeypatch.setattr(Kernel, "_int_line",
                            lambda kern, l, *rest: built.append(l) or int_line(kern, l, *rest))
        monkeypatch.setattr(qhc.izergin, "_last_column", determinant)
        kern = Kernel(Rat(3, 2))
        for xs, ys, columns in [((Rat(1, 2), Rat(1, 2)), (2, 3), False), ((2, 3), (5, 5), True)]:
            with pytest.raises(PoleError, match="vanishing denominator"):
                izergin(kern, xs, ys, columns=columns)
        assert len(built) == 3 and len(dets) == 2  # the int 5 is one object, so one line


wide_points = rational_points(min_k=3, max_k=5)


@st.composite
def shared_fixed_sets(draw):
    """q, a fixed set of 3 <= k <= 5 values and line sets of k values drawn from one pool.

    The pool holds the point's other set and up to three more values, so
    lines and subsets of lines recur from one line set to the next.
    """
    q, xs, ys = draw(wide_points)
    pool = list(xs) + draw(lists_of(point_values, 0, 3))
    line_sets = st.permutations(pool).map(lambda p: tuple(p[:len(ys)]))
    return q, ys, draw(st.lists(line_sets, min_size=2, max_size=6))


class TestMinorTables:
    """A rational K of three or more lines is one Laplace step over its fixed set's minor table.

    Either orientation gives the `Rat`, or the PoleError, that elimination
    of the `Rat` rows gives.
    """

    @given(rational_points(max_k=5))
    @settings(max_examples=200, deadline=None)
    def test_fresh_kernels_in_both_orientations(self, point):
        q, xs, ys = point
        want = outcome(rat_row_izergin, q, xs, ys)
        assert [outcome(Kernel(q).k, xs, ys, columns) for columns in (False, True)] == [want] * 2

    @given(shared_fixed_sets())
    @settings(max_examples=120, deadline=None)
    def test_one_kernel_reuses_the_table_of_a_fixed_set(self, case):
        q, fixed, line_sets = case
        kern = Kernel(q)
        for lines in line_sets:
            assert outcome(kern.k, lines, fixed) == outcome(rat_row_izergin, q, lines, fixed)
            assert outcome(kern.k, fixed, lines, True) == outcome(rat_row_izergin, q, fixed, lines)
        assert len(kern._tables) <= 2  # one per orientation: every K read the same tables

    def test_both_orientations_give_equal_rats(self):
        (t, x, s, y), q = sample_generic((5, 5, 5, 5), 3)
        for xs, ys in ((t, y), (x, s), (t[:3], s[2:])):
            got = [Kernel(q).k(xs, ys, columns) for columns in (False, True)]
            assert type(got[0]) is type(got[1]) is Rat
            assert got[0] == got[1] == rat_row_izergin(q, xs, ys) != 0

    def test_a_repeated_value_raises_as_elimination_does(self):
        # in the fixed set before its table is built, and in a line subset of
        # a table already built, each raising again when asked again
        q, a, b, c, d, e = Rat(5, 3), Rat(2), Rat(-1, 2), Rat(7), Rat(3, 4), Rat(9)
        pole, fixed_set = (PoleError, "vanishing denominator"), (d, e, Rat(1))
        for columns in (False, True):
            kern = Kernel(q)
            for lines, fixed, raises in (((a, b, c), (d, d, e), True),
                                         ((a, b, c), fixed_set, False),
                                         ((a, a, c), fixed_set, True),
                                         ((b, Rat(-1, 2), c), fixed_set, True)):
                xs, ys = (fixed, lines) if columns else (lines, fixed)
                want = outcome(rat_row_izergin, q, xs, ys)
                assert (want == pole) == raises
                for _ in range(2):
                    assert outcome(kern.k, xs, ys, columns) == want
            assert len(kern._tables) == 1  # (d, d, e) built none


class TestSeriesLineTables:
    """A K whose series values lie on one side reads every line from its fixed set's table.

    The point is RED1's at a = b = 2 with two nested z: z' holds a level-1
    and a level-2 series, so K meets series lines of both levels.
    """

    point = sample_generic((2, 2, 2, 2, 2), 7)

    def evaluate(self, kern):
        (t, x, s, y, z), _ = self.point
        for side in ("l", "r"):
            outcome(hc_red1_pair, kern, side, t, x, s, y, z)

    def test_each_series_line_is_built_once_per_kernel(self, monkeypatch):
        builds = Counter()
        series_line = Kernel._series_line

        def recording(kern, line, fixed, columns):
            builds[line, fixed, columns] += 1
            return series_line(kern, line, fixed, columns)

        monkeypatch.setattr(Kernel, "_series_line", recording)
        kern = Kernel(self.point[1])
        self.evaluate(kern)
        nds, reads = kern._nds, 0
        for key in kern._ks:  # the series lines that the one-sided series K read
            n = len(key) // 2
            series = [sum(nds[i] is None for i in half) for half in (key[:n], key[n:])]
            if n > 1 and series.count(0) == 1:
                reads += sum(series)
        assert builds and set(builds.values()) == {1}
        assert reads > 2 * len(builds)
        held = {(line, fixed, columns) for (fixed, columns), (rows, *_) in kern._tables.items()
                for line in rows if nds[line] is None}
        assert held == set(builds)

    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_every_memoised_k_is_a_fresh_kernels(self, window):
        q = self.point[1]
        with invert_window(window):
            kern = Kernel(q)
            self.evaluate(kern)
            assert any(not kern.rational(kern.values[i] for i in key) for key in kern._ks)
            for key, value in kern._ks.items():
                vs = [kern.values[i] for i in key]
                assert fields(value) == fields(Kernel(q).k(vs[:len(vs) // 2], vs[len(vs) // 2:]))


def domain_wall(q, a, c, xs, ys):
    """<c...c| T_ac(x_1) ... T_ac(x_n) |a...a> of the N = 2 six-vertex chain, inhomogeneities ys.

    R(u, v) is f(u, v) on E_ii (x) E_ii, 1 on E_ii (x) E_jj, u g(u, v) on
    E_12 (x) E_21 and v g(u, v) on E_21 (x) E_12, with f and g in plain
    arithmetic.  T(u) = R_0n(u, y_n) ... R_01(u, y_1) acts on dict vectors
    keyed by the auxiliary index and the sites: the auxiliary index c
    enters at site 1 and a leaves at site n.
    """
    n, qinv = len(ys), 1 / q
    state = {(a,) * n: Rat(1)}
    for x in reversed(xs):
        vec = {(c, sites): w for sites, w in state.items()}
        for k, y in enumerate(ys):
            f, g = (q * x - qinv * y) / (x - y), (q - qinv) / (x - y)
            # (auxiliary out, site out, auxiliary in, site in) -> weight
            weights = {(1, 1, 1, 1): f, (2, 2, 2, 2): f, (1, 2, 1, 2): Rat(1),
                       (2, 1, 2, 1): Rat(1), (1, 2, 2, 1): x * g, (2, 1, 1, 2): y * g}
            new = {}
            for (b, sites), w in vec.items():
                for (b_out, s_out, b_in, s_in), r in weights.items():
                    if (b_in, s_in) == (b, sites[k]):
                        key = (b_out, sites[:k] + (s_out,) + sites[k + 1:])
                        new[key] = new.get(key, Rat(0)) + r * w
            vec = new
        state = {sites: w for (b, sites), w in vec.items() if b == a}
    return state.get((c,) * n, Rat(0))


class TestDomainWall:
    """K^(l) and K^(r) are domain-wall partition functions of the N = 2 six-vertex chain.

    K^(l)_n(xs|ys) = <2...2| T12(x_1) ... T12(x_n) |1...1> and
    K^(r)_n(xs|ys) = <1...1| T21(x_1) ... T21(x_n) |2...2> (Korepin,
    CMP 86 (1982) 391; Izergin, Sov. Phys. Dokl. 32 (1987) 878), a value
    computed without `Kernel`.
    """

    sides = (("l", 1, 2), ("r", 2, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rational_points(self, n):
        for seed in range(2):
            (xs, ys), q = sample_generic((n, n), seed)
            for side, a, c in self.sides:
                want = domain_wall(q, a, c, xs, ys)
                assert izergin_side(Kernel(q), side, xs, ys) == want != 0

    @pytest.mark.parametrize("kind", ["x", "y", "mixed", "nested", "nested-mixed", "residue"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_series_points(self, n, kind):
        (xs, ys), q = sample_generic((n, n), n)
        xs, ys, e, e2 = list(xs), list(ys), eps(), eps(level=2)
        if kind == "residue":
            xs[0] = ys[0] + e
        else:
            if kind in ("x", "mixed", "nested"):
                xs[-1] = xs[-1] + e
            if kind in ("y", "mixed", "nested-mixed"):
                ys[-1] = ys[-1] + Rat(-3, 2) * e
            if kind.startswith("nested"):
                xs[0] = xs[0] + e2
        for side, a, c in self.sides:
            got = izergin_side(Kernel(q), side, xs, ys)
            want = domain_wall(q, a, c, xs, ys)
            assert agree(got, want)
            for read in (take_limit, residue):
                u, v = value_or_error(read, got), value_or_error(read, want)
                if not isinstance(u, ArithmeticError) and not isinstance(v, ArithmeticError):
                    assert agree(u, v)


def in_order_fprod(q, us, vs):
    """f(us, vs) as the product from ``Rat(1)`` of (q u - v/q) / (u - v) over the pairs, in order."""
    out = Rat(1)
    for u in us:
        for v in vs:
            out = out * divide(q * u - v / q, u - v)
    return out


def in_order_side(k, vs):
    """K^(l,r): ``k`` times the side values ``vs``, in order."""
    out = k
    for v in vs:
        out = out * v
    return out


# Rational points at the default window, and series points (all series on one
# side, or on both) at the window they draw.
product_points = st.one_of(rational_points().map(lambda point: (*point, INVERT_TERMS)),
                           series_points(), series_points(mixed=True))


class TestIntegerProducts:
    """f-products, K^(l,r) and the integer kernel equal their in-order or `Rat` forms.

    At rational points the products are one integer fraction; where a value
    is a series they hold the fields of the product taken in order.
    """

    @given(product_points, st.integers(min_value=0, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_fprod_is_the_in_order_product_of_f(self, point, m):
        q, us, vs, window = point
        vs = vs[:m]
        with invert_window(window):
            kern = Kernel(q)
            for a, b in ((us, vs), (vs, us), (us, us[::-1])):
                got = outcome(kern.fprod, a, b)
                assert got == outcome(in_order_fprod, q, a, b)
                assert outcome(kern.fprod, a, b) == got  # the memo keeps it

    @given(product_points)
    @settings(max_examples=300, deadline=None)
    def test_k_side_is_k_times_its_side_values(self, point):
        q, xs, ys, window = point
        with invert_window(window):
            kern = Kernel(q)
            try:
                k = izergin(kern, xs, ys)
            except (PoleError, WindowError):
                return
            for side, vs in (("l", xs), ("r", ys)):
                got = outcome(izergin_side, kern, side, xs, ys)
                assert got == outcome(in_order_side, k, vs)

    def test_a_pole_after_a_zero_f_raises(self):
        # f(1, 4) = 0 at q = 2, and the second pair is u = v: the zero
        # numerator must not hide the pole
        kern, us, vs = Kernel(Rat(2)), (Rat(1), Rat(4)), (Rat(4),)
        assert kern.f(Rat(1), Rat(4)) == 0
        with pytest.raises(PoleError, match="^vanishing denominator$"):
            kern.fprod(us, vs)
        assert (len(us), kern.indices(us + vs)) not in kern._fprods

    def test_k_side_with_int_and_rat_values(self):
        kern = Kernel(Rat(5, 3))
        xs, ys = (3, Rat(5, 2), -4), (Rat(7), 2, Rat(-1, 3))
        k = izergin(kern, xs, ys)
        for side, vs in (("l", xs), ("r", ys)):
            got = izergin_side(kern, side, xs, ys)
            assert type(got) is Rat and got == k * math.prod(vs)

    def test_a_series_k_side_is_the_in_order_product(self):
        # one-sided series points: the series K, and a series side value,
        # keep the product of K and the side values in their order
        e, e2 = eps(), eps(level=2)
        rationals = (Rat(5, 2), Rat(-4), Rat(1, 7))
        for series in ((Rat(3) + e,), (Rat(3) + e2, Rat(9, 5) + e)):
            xs = series + rationals[len(series):]
            ys = (Rat(7), Rat(-1, 3), Rat(11))
            for a, b in ((xs, ys), (ys, xs)):
                k = izergin(Kernel(Rat(2)), a, b)
                for side, vs in (("l", a), ("r", b)):
                    want = k
                    for v in vs:
                        want = want * v
                    got = izergin_side(Kernel(Rat(2)), side, a, b)
                    assert fields(got) == fields(want)

    def test_empty_products_are_one(self):
        kern = Kernel(Rat(5, 3))
        us = (Rat(1, 2), Rat(3))
        for a, b in (((), us), (us, ()), ((), ()), ((), (eps(),)), ((eps(),), ())):
            got = kern.fprod(a, b)
            assert got == 1 and type(got) is Rat
        for side in ("l", "r"):
            got = izergin_side(kern, side, (), ())
            assert got == 1 and type(got) is Rat


class TestExactValuesOnly:
    """A float or complex value raises TypeError instead of giving an inexact result."""

    @pytest.mark.parametrize("evaluate", [
        lambda kern: izergin(kern, (0.5, 1.25), (1.5, 3.0)),
        lambda kern: izergin(kern, (Rat(1, 2), Rat(5, 4)), (Rat(3, 2), 3.0)),
        lambda kern: izergin_side(kern, "r", (Rat(1, 2),), (1.5 + 0j,)),
        lambda kern: kern.f(0.5, 1.5),
        lambda kern: kern.g(Rat(1, 2), 1.5),
        lambda kern: kern.fprod((Rat(1, 2),), (1.5,)),
        lambda kern: kern.shift((0.5,), 2),
        lambda kern: kern.f(eps() + 0.5, Rat(3)),
    ])
    def test_the_kernel_rejects_them(self, evaluate):
        kern = Kernel(2)
        with pytest.raises(TypeError, match=r"inexact value \(?(0\.5|1\.5|3\.0)"):
            evaluate(kern)
        assert all(isinstance(v, (Rat, int)) for v in kern.values)

    def test_a_float_equal_to_an_indexed_rational_is_rejected(self):
        kern = Kernel(2)
        assert kern.f(Rat(1, 2), 3) == Rat(1, 5)
        with pytest.raises(TypeError, match=r"inexact value 0\.5 \(float\)"):
            kern.f(0.5, 3)

    @pytest.mark.parametrize("q", [0.1, 0.5, 2 + 0j])
    def test_q_is_rejected(self, q):
        with pytest.raises(TypeError, match=re.escape(f"inexact value {q!r} ")):
            Kernel(q)

    def test_a_sweep_rejects_q_before_any_case_is_sampled(self, monkeypatch):
        monkeypatch.setattr("qhc.verify.registry", lambda: pytest.fail("swept"))
        with pytest.raises(TypeError, match=r"inexact value 0\.1 \(float\)"):
            run_suite("twins", a_max=1, b_max=1, trials=1, q=0.1)

    @pytest.mark.parametrize("rows", [
        [[0.5, 1], [2, 3]],
        [[Rat(1), 2], [1j, 1]],
        [[eps(), 0.5], [1, 1]],
    ], ids=["rational", "complex", "series"])
    def test_det_rejects_them(self, rows):
        with pytest.raises(TypeError, match="inexact value"):
            det(rows)


class TestKernelMemo:
    """A Kernel indexes the values of its own point and memoises K and f."""

    xs, ys = (Rat(3), Rat(5, 2)), (Rat(7), Rat(-1, 3))

    def test_kernels_with_different_q_keep_their_own_values(self):
        k2, k3 = Kernel(Rat(2)), Kernel(Rat(3))
        got = [izergin(k, self.xs, self.ys) for k in (k2, k3, k2, k3)]
        assert got[0] != got[1]
        assert got[2:] == got[:2]
        assert got[1] == as_rat(reference_izergin(3, self.xs, self.ys))
        assert [k2.f(Rat(3), Rat(1)), k3.f(Rat(3), Rat(1))] == [Rat(11, 4), Rat(13, 3)]

    def test_values_are_indexed_by_identity(self):
        kern = Kernel(Rat(2))
        u, twin, v = Rat(3, 2), Fraction(6, 4), Rat(7)
        i = kern.index(u)
        assert kern.index(u) == i
        assert kern.index(twin) != i  # equal, but another object
        assert kern.indices((twin, u)) == (kern.index(twin), i)
        assert len(kern.values) == 2
        assert kern.f(twin, v) == kern.f(u, v)
        assert izergin(kern, (twin,), (v,)) == izergin(kern, (u,), (v,))
        near = u + eps()
        for x in (u, near):
            assert kern.shift(kern.shift((x,), 2), -2)[0] is x
            assert kern.shift(kern.shift((x,), -2), 2)[0] is x

    def test_a_series_is_indexed_by_identity(self):
        kern = Kernel(Rat(2))
        near = self.xs[0] + eps()
        twin = self.xs[0] + eps()  # equal coefficients, another object
        other = self.xs[0] - eps()
        first = izergin(kern, (near, self.xs[1]), self.ys)
        indexed = len(kern.values)
        assert izergin(kern, (near, self.xs[1]), self.ys) is first
        assert len(kern.values) == indexed
        assert kern.index(twin) != kern.index(near)
        again = izergin(kern, (twin, self.xs[1]), self.ys)
        assert again is not first and repr(again) == repr(first)
        flipped = izergin(kern, (other, self.xs[1]), self.ys)
        fresh = izergin(Kernel(Rat(2)), (other, self.xs[1]), self.ys)
        assert repr(flipped) == repr(fresh) != repr(first)
        assert first.coeff(0) == izergin(kern, self.xs, self.ys)

    def test_rational_asks_the_index_space(self):
        kern = Kernel(Rat(2))
        near = Rat(3) + eps()
        assert kern.rational(())
        assert kern.rational((Rat(3, 2), 7, Fraction(6, 4)))
        assert kern.rational(kern.shift((Rat(5), 7), 2))
        assert not kern.rational((Rat(3), near))
        assert not kern.rational((eps(level=2), 7))
        assert not kern.rational(kern.shift((near,), -2))
        assert kern.rational((Rat(3),))  # near's point is still rational

    def test_memo_does_not_change_equality_or_hash(self):
        used, fresh = Kernel(Rat(2)), Kernel(Rat(2))
        izergin(used, self.xs, self.ys)
        used.fprod(self.xs, self.ys)
        assert used.values and not fresh.values
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_inverted_kernel_has_its_own_memo(self):
        kern = Kernel(Rat(2))
        izergin(kern, self.xs, self.ys)
        inv = kern.inverted()
        assert not inv.values
        assert izergin(inv, self.xs, self.ys) == as_rat(
            reference_izergin(Rat(1, 2), self.xs, self.ys))
        assert izergin(kern, self.xs, self.ys) == as_rat(
            reference_izergin(2, self.xs, self.ys))

    def test_f_products_keep_their_split(self):
        kern = Kernel(Rat(2))
        a, b, c = Rat(3), Rat(5), Rat(7)
        assert kern.fprod((a, b), (c,)) == kern.f(a, c) * kern.f(b, c)
        assert kern.fprod((a,), (b, c)) == kern.f(a, b) * kern.f(a, c)

    @pytest.mark.parametrize("u, v", [(Rat(3), Rat(5, 2)), (Rat(3) + eps(), Rat(5, 2)),
                                      (Rat(3), Rat(5, 2) + eps(level=2))],
                             ids=["rational", "series-u", "series-v"])
    def test_f_is_the_product_over_one_pair(self, u, v):
        kern = Kernel(Rat(2))
        got = kern.f(u, v)
        assert got is kern.fprod((u,), (v,))
        assert fields(got) == fields(in_order_fprod(Rat(2), (u,), (v,)))

    def test_each_series_f_is_formed_once_per_kernel(self, monkeypatch):
        # one product (q u - q^-1 v) * 1/(u - v) per series pair, whatever
        # f-products share the pair; the rest multiply the memoised f
        products, mul = [], LaurentSeries.__mul__
        monkeypatch.setattr(LaurentSeries, "__mul__",
                            lambda s, other: products.append(s) or mul(s, other))
        kern = Kernel(Rat(2))
        a, b, c = Rat(3) + eps(), Rat(5) + eps(), Rat(7)
        kern.fprod((a, b), (c,))
        assert len(products) == 2 + 1
        kern.f(a, c)
        kern.fprod((b, a), (c,))
        assert len(products) == 3 + 1

    def test_series_rows_keep_their_argument_order(self):
        # K is symmetric in its rows, but a truncated series K may depend on
        # the order of its arguments; each order is memoised on its own.
        xs = (Rat(3) + eps(), Rat(5, 2), Rat(-4))
        ys = (Rat(7), Rat(-1, 3), Rat(9, 5))
        kern = Kernel(Rat(2))
        for perm in itertools.permutations(range(3)):
            rows = tuple(xs[i] for i in perm)
            got = izergin(kern, rows, ys)
            fresh = izergin(Kernel(Rat(2)), rows, ys)
            assert repr(got) == repr(fresh)
            assert got.order == fresh.order > 0
            assert got == izergin(kern, xs, ys)
        assert len(kern._ks) == 6

    @given(st.integers(min_value=0, max_value=10**5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_indexed_values_match_plain_arithmetic(self, seed, data):
        (pool,), q = sample_generic((6,), seed)
        kern = Kernel(q)
        k = data.draw(between(0, 3))
        order = data.draw(st.permutations(pool))
        base, ys = tuple(order[:k]), tuple(order[k:2 * k])
        shift = data.draw(st.sampled_from([0, 2, -2]))
        xs = kern.shift(base, shift) if shift else base
        assert xs == tuple(v * q ** shift for v in base)
        if shift:
            # one object per value: shifting back returns the pool's objects
            assert all(a is b for a, b in zip(kern.shift(xs, -shift), base))
            assert all(a is b for a, b in zip(kern.shift(base, shift), xs))
        assert izergin(kern, xs, ys) == as_rat(reference_izergin(q, xs, ys))
        assert izergin_side(kern, "l", xs, ys) == izergin(kern, xs, ys) * math.prod(xs)
        assert izergin_side(kern, "r", xs, ys) == izergin(kern, xs, ys) * math.prod(ys)
        want = Fraction(1)
        for u in xs:
            for v in ys:
                want *= (q * u - v / q) / (u - v)
        assert kern.fprod(xs, ys) == want

    @given(st.integers(min_value=0, max_value=10**5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shared_pair_entries_match_a_fresh_kernel(self, seed, data):
        # One kernel answers f, K and K^(l,r) in drawn order, so pair-table
        # entries made for one call serve later ones, f before K and after.
        # Each outcome, an error included, is that of a fresh kernel field
        # for field; at rational arguments it is the reference's value.
        (pool,), q = sample_generic((8,), seed)
        values = (*pool, pool[0] + eps(), pool[1] + eps(level=2))
        kern = Kernel(q)
        for _ in range(data.draw(between(1, 6))):
            call = data.draw(st.sampled_from(["f", "k", "l", "r"]))
            k = 1 if call == "f" else data.draw(between(0, 4))
            rational = data.draw(booleans)
            drawn = data.draw(st.permutations(pool if rational else values))
            xs, ys = tuple(drawn[:k]), tuple(drawn[k:2 * k])
            if call == "f":
                run = lambda kn: kn.f(xs[0], ys[0])
            elif call == "k":
                run = lambda kn: izergin(kn, xs, ys)
            else:
                run = lambda kn: izergin_side(kn, call, xs, ys)
            got = outcome(run, kern)
            assert got == outcome(run, Kernel(q))
            if rational:
                if call == "f":
                    (u,), (v,) = xs, ys
                    want = (q * u - v / q) / (u - v)
                else:
                    want = as_rat(reference_izergin(q, xs, ys))
                    want *= {"k": 1, "l": math.prod(xs), "r": math.prod(ys)}[call]
                assert got == fields(want)


class TestRepeatedValues:
    """A set that repeats a value raises PoleError, as its evaluation does."""

    def test_izergin(self):
        kern = Kernel(Rat(2))
        for xs, ys in [((1, 1), (2, 3)), ((2, 3), (1, 1))]:
            with pytest.raises(PoleError):
                izergin(kern, xs, ys)
            with pytest.raises(PoleError):
                izergin_side(kern, "l", xs, ys)

    @pytest.mark.parametrize("rep", REPRESENTATIONS)
    def test_hc(self, rep):
        kern = Kernel(Rat(2))
        with pytest.raises(PoleError):
            hc(kern, "l", (1, 1), (2, 3), (), (), rep)
        with pytest.raises(PoleError):
            hc(kern, "r", (2,), (3,), (5, 5), (7, 11), rep)

    def test_a_value_shared_by_two_sets_is_no_repeat(self):
        # s and x meet in no union of the ty forms, so Z is finite there
        kern = Kernel(Rat(2))
        for rep in ("ty", "ty-twin"):
            assert hc(kern, "l", (2,), (5,), (5,), (7,), rep) == Rat(2835, 32)
        with pytest.raises(PoleError):
            hc(kern, "l", (2,), (5,), (5,), (7,), "ws")

    def test_fprod_may_repeat_a_value(self):
        kern = Kernel(Rat(2))
        assert kern.fprod((3, 3), (5,)) == kern.f(3, 5) ** 2 == Rat(49, 16)
