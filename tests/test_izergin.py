"""Izergin determinant evaluators against an independent reference."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.exactnum import LaurentSeries, PoleError, Rat, WindowError, eps, take_limit
from qhc.highest import REPRESENTATIONS, hc
from qhc.izergin import (
    Kernel,
    det,
    izergin,
    izergin_side,
    lemma_partition_sum,
    mult_pole_limit,
)
from qhc.params import sample_generic


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


rats = st.fractions(min_value=-9, max_value=9, max_denominator=5).map(
    lambda f: Rat(f.numerator, f.denominator))
level1_entries = st.builds(
    lambda v, cs, extra: LaurentSeries(v, cs, math.inf if extra is None else v + extra),
    st.integers(min_value=-2, max_value=2), st.lists(rats, max_size=3),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
rational_or_level1 = st.one_of(rats, st.just(Rat(0)), level1_entries)
entries = st.one_of(
    rational_or_level1,
    st.builds(lambda a, b: a + b * eps(level=2), rational_or_level1, rats))


def square(entry):
    return st.integers(min_value=1, max_value=4).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


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

    def test_rationals_are_indexed_by_value(self):
        kern = Kernel(Rat(2))
        i = kern.index(Rat(3, 2))
        assert kern.index(Fraction(6, 4)) == i and kern.index(Rat(3, 2)) == i
        assert kern.index(Rat(3)) != i
        assert kern.indices((Rat(3), Fraction(3, 2))) == (kern.index(Rat(3)), i)
        assert len(kern.values) == 2

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

    def test_series_rows_keep_their_argument_order(self):
        # K is symmetric in its rows, but a truncated series K depends on the
        # order in which det pivots; each order is memoised on its own.
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
        k = data.draw(st.integers(min_value=0, max_value=3))
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
