"""Exact rational scalars and truncated Laurent series.

All identity checks in this package compare values with exact equality, so the
ground field is the rationals (gmpy2.mpq when available, fractions.Fraction
otherwise).  Limits and residues are computed in a truncated Laurent series
ring over that field.  Series can be nested (a series whose coefficients are
themselves series of a lower ``level``), which is how sequential multi-variable
limits are evaluated one infinitesimal at a time.  Level-1 products clear
denominators and convolve integer numerators, and a level-2 product sums the
level-1 products of each of its coefficients in one such integer pass.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat

__all__ = [
    "Rat",
    "ExactError",
    "PoleError",
    "WindowError",
    "SingularPartError",
    "scalar_parse",
    "scalar_format",
    "LaurentSeries",
    "eps",
    "take_limit",
    "invert_window",
]

# Number of series terms computed when inverting a multi-term unit.
INVERT_TERMS = 8

# The window `invert` uses; only `invert_window` changes it.
_invert_terms = INVERT_TERMS

_INF = math.inf

_ZERO = Rat(0)

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class ExactError(ArithmeticError):
    """Base class for exact-arithmetic failures."""


class PoleError(ExactError):
    """A denominator vanished where the formula requires it nonzero."""


class WindowError(ExactError):
    """A series order outside the reliable truncation window was requested."""


class SingularPartError(ExactError):
    """A limit was taken of a series with a non-vanishing singular part."""


def scalar_parse(text):
    """Parse ``p`` or ``p/q`` into an exact rational (canonical form)."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in rational literal: {text!r}")
    return Rat(num, den)


def scalar_format(value):
    """Render an exact rational as ``p`` or ``p/q`` with q > 0."""
    r = Rat(value)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _is_series(x):
    return isinstance(x, LaurentSeries)


def _level(x):
    return x.level if _is_series(x) else 0


def _coeff_is_zero(c):
    """True only for an exact zero: a truncated zero is unknown, not zero."""
    if isinstance(c, LaurentSeries):
        return not c.coeffs and c.order is _INF
    return c == 0


def _known_nonzero(c):
    """True when some coefficient of ``c``, at any level, is a nonzero scalar."""
    if _is_series(c):
        return any(_known_nonzero(x) for x in c.coeffs)
    return c != 0


def _low(s):
    """A lower bound on the true valuation: ``order`` for a truncated zero."""
    return s.order if s.is_zero() else s.valuation


def _shift(v, order):
    """``v + order``, keeping the ``_INF`` sentinel identical."""
    return _INF if order is _INF else v + order


def _over_common_denominator(cs):
    """Integer numerators of the scalars ``cs`` over the lcm of their denominators."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _convolve_into(out, xs, ys, shift=0):
    """Add the product of ``xs`` and ``ys``, moved up ``shift`` places, to ``out``.

    Only the first ``len(out)`` places are kept.  Every product is added, so a
    coefficient's type follows the ring whichever factor is on the left.
    """
    n = max(0, len(out) - shift)
    for i, x in enumerate(xs[:n]):
        for j, y in enumerate(ys[:n - i], shift + i):
            out[j] = out[j] + x * y


def _integer_rows(coeffs):
    """Level-0 and level-1 coefficients over one common denominator ``d``.

    Each row is ``(is_series, is_exact_zero, low, order, valuation, nums)``
    with ``nums`` the integer numerators over ``d``; a scalar is a constant.
    """
    flat = [x for c in coeffs for x in (c.coeffs if _is_series(c) else (c,))]
    nums, d = _over_common_denominator(flat)
    rows, at = [], 0
    for c in coeffs:
        if _is_series(c):
            row = nums[at:at + len(c.coeffs)]
            rows.append((True, _coeff_is_zero(c), _low(c), c.order, c.valuation, row))
        else:
            row = nums[at:at + 1]
            rows.append((False, row[0] == 0, 0, _INF, 0, row))
        at += len(row)
    return rows, d


def _nested_convolve(xs, ys, n):
    """The first ``n`` coefficients of a product of two level-2 coefficient lists.

    Equals the sum over ``i + j = k`` of ``xs[i] * ys[j]`` in the series ring,
    type and order included, but adds each coefficient's level-1 products
    as integers and builds its scalars once.
    """
    xs, dx = _integer_rows(xs)
    ys, dy = _integer_rows(ys)
    d = dx * dy
    out = []
    for k in range(n):
        is_series, order, terms = False, _INF, []
        for i in range(max(0, k - len(ys) + 1), min(k + 1, len(xs))):
            x_series, x_zero, x_low, x_order, x_val, x_nums = xs[i]
            y_series, y_zero, y_low, y_order, y_val, y_nums = ys[k - i]
            # a product with a series is a series, even an exact zero one
            is_series = is_series or x_series or y_series
            if x_zero or y_zero:
                continue
            order = min(order, _shift(x_low, y_order), _shift(y_low, x_order))
            if x_nums and y_nums:
                terms.append((x_val + y_val, x_nums, y_nums))
        if not is_series:
            out.append(Rat(sum(a[0] * b[0] for _, a, b in terms), d))
            continue
        lo = min((v for v, _, _ in terms), default=0)
        hi = max((v + len(a) + len(b) - 1 for v, a, b in terms), default=0)
        if order is not _INF:
            hi = min(hi, int(order))
        acc = [0] * max(0, hi - lo)
        for v, a, b in terms:
            _convolve_into(acc, a, b, v - lo)
        out.append(LaurentSeries(lo, [Rat(c, d) for c in acc], order, 1))
    return out


@contextmanager
def invert_window(terms):
    """Invert multi-term units to ``terms`` terms inside the block.

    A narrower window makes every product and sum behind it shorter; what it
    cannot decide raises `WindowError`, as at any window.
    """
    global _invert_terms
    old, _invert_terms = _invert_terms, terms
    try:
        yield
    finally:
        _invert_terms = old


def _coeff_invert(c):
    if _is_series(c):
        return c.invert()
    if c == 0:
        raise PoleError("division by zero coefficient")
    return Rat(1) / c


class LaurentSeries:
    """Truncated Laurent series sum_{k>=valuation} c_k eps^k.

    ``order`` is the first unreliable power (may be ``inf`` for exact
    polynomials); coefficients below ``valuation`` are exactly zero.
    ``level`` orders nested infinitesimals: a higher-level series treats any
    lower-level value (including plain rationals, level 0) as a constant
    coefficient.  The higher-level infinitesimal is the one that tends to zero
    first, so sequential limits peel levels from the top down.
    """

    __slots__ = ("level", "valuation", "coeffs", "order")

    def __init__(self, valuation, coeffs, order=_INF, level=1):
        if level < 1:
            raise ValueError("series level must be >= 1")
        self.level = level
        self.valuation = valuation
        self.coeffs = tuple(coeffs)
        self.order = order
        self._trim()

    def _trim(self):
        cs, o = self.coeffs, self.order
        # drop coefficients at or above the reliability bound
        hi = len(cs)
        if o is not _INF:
            hi = min(hi, max(0, int(o) - self.valuation))
        # then zeros at either end, but only exact ones
        lo = 0
        while lo < hi and _coeff_is_zero(cs[lo]):
            lo += 1
        while hi > lo and _coeff_is_zero(cs[hi - 1]):
            hi -= 1
        if lo == hi:
            # every zero has valuation 0, however it was made
            self.valuation, self.coeffs = 0, ()
        elif lo or hi < len(cs):
            self.valuation += lo
            self.coeffs = cs[lo:hi]

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, level=1):
        return cls(0, (), _INF, level)

    @classmethod
    def constant(cls, value, level=1):
        return cls(0, (value,), _INF, level)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_exact(self):
        return self.order is _INF

    # -- coefficient access ---------------------------------------------

    def coeff(self, k):
        """Coefficient of eps^k; raises WindowError above the retained window."""
        if k >= self.order:
            raise WindowError(f"order {k} not retained (reliable below {self.order})")
        if k < self.valuation or k >= self.valuation + len(self.coeffs):
            return Rat(0)
        return self.coeffs[k - self.valuation]

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        """Lift ``other`` to a constant series of this level, or None.

        Only an exact zero lifts to the zero series; a truncated zero of a
        lower level stays a coefficient that is known only in its window.
        """
        lo = _level(other)
        if lo == self.level:
            return other
        if lo < self.level:
            return LaurentSeries.constant(other, self.level)
        return None

    def _scaled(self, c):
        """``self * c`` for a rational ``c``, coefficient by coefficient.

        Field for field what the product with the constant series of ``c``
        gives: a zero ``c`` or an exact zero gives the exact zero, and a
        truncated zero gives the zero of its order.
        """
        cs, order = self.coeffs, self.order
        if not c or (not cs and order is _INF):
            return LaurentSeries.zero(self.level)
        return LaurentSeries(self.valuation, [x * c for x in cs], order, self.level)

    def _plus(self, c):
        """``self + c`` for a rational ``c != 0`` whose power 0 lies among the coefficients.

        The sum with the constant series of ``c`` adds ``Rat(0)`` to every
        other coefficient.  That changes only an integer (it becomes a
        ``Rat``), so only integers are added to.
        """
        cs = [x + _ZERO if type(x) is int else x for x in self.coeffs]
        k = -self.valuation
        cs[k] = self.coeffs[k] + c
        return LaurentSeries(self.valuation, cs, self.order, self.level)

    def __add__(self, other):
        # a rational acts on the coefficients; anything else is lifted to a
        # series of this level
        if (type(other) is Rat and other
                and self.valuation <= 0 < self.valuation + len(self.coeffs)):
            return self._plus(other)
        b = self._coerce(other)
        if b is None:
            return other + self
        a = self
        order = min(a.order, b.order)
        if a.is_zero():
            return LaurentSeries(b.valuation, b.coeffs, order, b.level)
        if b.is_zero():
            return LaurentSeries(a.valuation, a.coeffs, order, a.level)
        lo = min(a.valuation, b.valuation)
        hi = max(a.valuation + len(a.coeffs), b.valuation + len(b.coeffs))
        if order is not _INF:
            hi = min(hi, int(order))
        cs = []
        for k in range(lo, hi):
            ca = a.coeffs[k - a.valuation] if a.valuation <= k < a.valuation + len(a.coeffs) else Rat(0)
            cb = b.coeffs[k - b.valuation] if b.valuation <= k < b.valuation + len(b.coeffs) else Rat(0)
            cs.append(ca + cb)
        return LaurentSeries(lo, cs, order, self.level)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs), self.order, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Rat:
            return self._scaled(other)
        b = self._coerce(other)
        if b is None:
            return other * self
        a = self
        if _coeff_is_zero(a) or _coeff_is_zero(b):
            return LaurentSeries.zero(self.level)
        order = min(_shift(_low(a), b.order), _shift(_low(b), a.order))
        if a.is_zero() or b.is_zero():
            # a truncated zero times anything is known only up to that order
            return LaurentSeries(0, (), order, self.level)
        v = a.valuation + b.valuation
        n = len(a.coeffs) + len(b.coeffs) - 1
        if order is not _INF:
            n = min(n, int(order) - v)
        if self.level == 1:
            xs, da = _over_common_denominator(a.coeffs)
            ys, db = _over_common_denominator(b.coeffs)
            acc = [0] * n
            _convolve_into(acc, xs, ys)
            cs = [Rat(c, da * db) for c in acc]
        elif self.level == 2:
            cs = _nested_convolve(a.coeffs, b.coeffs, n)
        else:
            cs = [Rat(0)] * n
            _convolve_into(cs, a.coeffs, b.coeffs)
        return LaurentSeries(v, cs, order, self.level)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse up to the reliable window."""
        if self.is_zero():
            if self.is_exact():
                raise PoleError("division by exact zero series")
            raise WindowError("non-invertible at this truncation (all retained coefficients zero)")
        v = self.valuation
        cs = self.coeffs
        if self.order is _INF:
            m = _INF if len(cs) == 1 else max(len(cs), _invert_terms)
        else:
            m = int(self.order) - v
        c0inv = _coeff_invert(cs[0])
        if m is _INF:
            return LaurentSeries(-v, (c0inv,), _INF, self.level)
        d = [c0inv]
        for k in range(1, m):
            acc = Rat(0)
            for i in range(1, min(k, len(cs) - 1) + 1):
                acc = acc + cs[i] * d[k - i]
            d.append(-(c0inv * acc))
        order = -v + m if self.order is _INF else int(self.order) - 2 * v
        return LaurentSeries(-v, d, order, self.level)

    def __truediv__(self, other):
        if type(other) is Rat:
            if not other:
                raise PoleError("division by exact zero series")
            return self._scaled(Rat(1) / other)
        b = self._coerce(other)
        if b is None:
            return other.__rtruediv__(self)
        return self * b.invert()

    def __rtruediv__(self, other):
        return self.invert() * other

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("series exponent must be a non-negative integer")
        out = LaurentSeries.constant(Rat(1), self.level)
        for _ in range(n):
            out = out * self
        return out

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        a = self
        o = min(a.order, b.order)
        lo = min(a.valuation, b.valuation) if (a.coeffs or b.coeffs) else 0
        hi = max(a.valuation + len(a.coeffs), b.valuation + len(b.coeffs))
        if o is not _INF:
            # the constant term must be known, and neither side may hold a
            # coefficient the other does not know
            if o <= 0 or any(s.coeffs and s.valuation + len(s.coeffs) > o for s in (a, b)):
                raise WindowError(f"equality undecided at order {int(o)} and above")
            hi = min(hi, int(o))
        for k in range(lo, hi):
            ca = a.coeffs[k - a.valuation] if a.valuation <= k < a.valuation + len(a.coeffs) else Rat(0)
            cb = b.coeffs[k - b.valuation] if b.valuation <= k < b.valuation + len(b.coeffs) else Rat(0)
            if not (ca == cb):
                return False
        return True

    __hash__ = None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            terms.append(f"({c})*e^{self.valuation + i}")
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.order is _INF else f" + O(e^{self.order})"
        return f"<L{self.level} {body}{tail}>"


def eps(level=1):
    """The infinitesimal of the given nesting level (exactly known)."""
    return LaurentSeries(1, (Rat(1),), _INF, level)


def take_limit(value):
    """Send every infinitesimal to zero, outermost level first.

    Fails with SingularPartError if any singular part survives, and with
    WindowError if the constant term is outside a reliable window.
    """
    if not _is_series(value):
        return value
    if value.is_zero():
        if value.order <= 0:
            raise WindowError("constant term not retained in truncated zero series")
        return Rat(0)
    if value.valuation < 0:
        if not any(_known_nonzero(c) for c in value.coeffs[:-value.valuation]):
            raise WindowError("singular part not resolved at this truncation")
        raise SingularPartError(
            f"non-vanishing singular part (valuation {value.valuation}) in limit"
        )
    c0 = value.coeff(0)
    return take_limit(c0)
