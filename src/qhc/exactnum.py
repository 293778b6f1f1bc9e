"""Exact rational scalars and truncated Laurent series.

All identity checks in this package compare values with exact equality, so the
ground field is the rationals (``fractions.Fraction``).  Limits and residues
are computed in a truncated Laurent series ring over that field.  Series can
be nested (a series whose coefficients are themselves series of a lower
``level``), which is how sequential multi-variable limits are evaluated one
infinitesimal at a time.  A series of ``Rat`` coefficients, at any level,
holds them as integer numerators over one positive common denominator,
reduced by one gcd, so its sums, products, negation, scaling by a ``Rat``
and inverse work on integers and build a ``Rat`` only when a coefficient is
read.  A product with a factor whose coefficients are not all ``Rat`` (a
series of series, or an ``int`` coefficient) is the ring sum of its
coefficients' products.  Adding an exact zero ``Rat(0)`` to a series, at any
level, gives the series itself, so a sum that starts at ``Rat(0)`` lifts and
copies nothing.  An ``int`` operand is taken as a ``Rat``: a product scales
the coefficients by it.  A series has the number protocol of ``int`` and
``Rat``: its ``numerator`` is itself and its ``denominator`` is 1.  A float
or complex value raises TypeError wherever it meets a series or
`scalar_format`.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from operator import mul, not_

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

# Number of terms an exact polynomial of more than one term is inverted to,
# or its own length where that is longer.
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


def _check_exact(x):
    """Raise TypeError for a float or complex value: qhc computes exactly."""
    if isinstance(x, (float, complex)):
        raise TypeError(f"inexact value {x!r} ({type(x).__name__}); "
                        "use an exact rational such as Fraction or int") from None


def scalar_format(value):
    """Render an exact rational as ``p`` or ``p/q`` with q > 0."""
    _check_exact(value)
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
        return c.order is _INF and c.is_zero()
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
    return tuple([c.numerator * (d // c.denominator) for c in cs]), d


def _trimmed(cs, valuation, order, is_zero):
    """``(valuation, cs)`` cut below ``order`` and stripped of exact zeros at either end.

    Every zero has valuation 0, however it was made.
    """
    hi = len(cs)
    if order is not _INF:
        hi = min(hi, max(0, int(order) - valuation))
    lo = 0
    while lo < hi and is_zero(cs[lo]):
        lo += 1
    while hi > lo and is_zero(cs[hi - 1]):
        hi -= 1
    if lo == hi:
        return 0, ()
    if lo or hi < len(cs):
        return valuation + lo, tuple(cs[lo:hi])
    return valuation, tuple(cs)


def _ints(valuation, nums, den, order, level):
    """The series of ``level`` of the numerators ``nums`` over ``den > 0``, trimmed and reduced."""
    s = object.__new__(LaurentSeries)
    s.level, s.order, s._cs = level, order, None
    s.valuation, nums = _trimmed(nums, valuation, order, not_)
    g = math.gcd(den, *nums)
    if g > 1:
        den //= g
        nums = tuple([n // g for n in nums])
    s._nums, s._den = nums, den
    return s


def _convolve_into(out, xs, ys):
    """Add the product of ``xs`` and ``ys`` to ``out``, keeping its first ``len(out)`` places.

    Every product is added, so a coefficient's type follows the ring
    whichever factor is on the left.  A place that starts at ``Rat(0)``
    takes its first series product as it is (the exact-zero add); an ``int``
    product added to ``Rat(0)`` becomes a ``Rat``.
    """
    n = len(out)
    for i, x in enumerate(xs[:n]):
        for j, y in enumerate(ys[:n - i], i):
            out[j] = out[j] + x * y


@contextmanager
def invert_window(terms):
    """Invert exact polynomials of more than one term to ``terms`` terms inside the block.

    A polynomial longer than ``terms`` is inverted to its own length, and a
    truncated unit to all the terms it knows, whatever the window.

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

    A series whose coefficients are all ``Rat``, at any level, also holds
    them as the integer numerators ``_nums`` over ``_den > 0``, whose gcd with
    every numerator is 1; arithmetic on two such series of one level works on
    those integers alone, and ``coeffs`` builds the ``Rat``s once, when first
    read.  Any other series (a coefficient that is a series or an ``int``)
    holds only ``coeffs``.  Coefficients are kept from the valuation on, below
    the order, with no exact zero at either end.  A float or complex
    coefficient raises TypeError.
    """

    __slots__ = ("level", "valuation", "order", "_cs", "_nums", "_den")

    def __init__(self, valuation, coeffs, order=_INF, level=1):
        if level < 1:
            raise ValueError("series level must be >= 1")
        cs = tuple(coeffs)
        rats = all(type(c) is Rat for c in cs)
        if not rats:
            for c in cs:
                _check_exact(c)
        self.level, self.order = level, order
        self.valuation, self._cs = _trimmed(cs, valuation, order, _coeff_is_zero)
        self._nums, self._den = _over_common_denominator(self._cs) if rats else (None, None)

    @property
    def coeffs(self):
        """The coefficients from the valuation on, built from the integers once when first read."""
        cs = self._cs
        if cs is None:
            den = self._den
            cs = self._cs = tuple([Rat(n, den) for n in self._nums])
        return cs

    @property
    def numerator(self):
        """The series itself, so ``x.numerator / x.denominator`` is ``x`` for a series as for a ``Rat``."""
        return self

    @property
    def denominator(self):
        return 1

    def _width(self):
        """The number of coefficients held, read without building them."""
        return len(self._nums if self._cs is None else self._cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, level=1):
        return cls(0, (), _INF, level)

    @classmethod
    def constant(cls, value, level=1):
        return cls(0, (value,), _INF, level)

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not (self._nums if self._cs is None else self._cs)

    def is_exact(self):
        return self.order is _INF

    # -- coefficient access ---------------------------------------------

    def coeff(self, k):
        """Coefficient of eps^k; raises WindowError above the retained window."""
        if k >= self.order:
            raise WindowError(f"order {k} not retained (reliable below {self.order})")
        if k < self.valuation or k >= self.valuation + self._width():
            return Rat(0)
        return self.coeffs[k - self.valuation]

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        """Lift ``other`` to a constant series of this level, or None.

        Only an exact zero lifts to the zero series; a truncated zero of a
        lower level stays a coefficient that is known only in its window.
        An ``int`` is lifted as a ``Rat``, so a sum or product holds the same
        coefficient types whichever operand is on the left.
        """
        lo = _level(other)
        if lo == self.level:
            return other
        if lo < self.level:
            if type(other) is int:
                other = Rat(other)
            return LaurentSeries.constant(other, self.level)
        return None

    def _scaled(self, c):
        """``self * c`` for a rational ``c``, coefficient by coefficient.

        Field for field what the product with the constant series of ``c``
        gives: a zero ``c`` or an exact zero gives the exact zero, and a
        truncated zero gives the zero of its order.
        """
        order = self.order
        if not c or (order is _INF and self.is_zero()):
            return LaurentSeries.zero(self.level)
        if self._nums is not None:
            return _ints(self.valuation, [n * c.numerator for n in self._nums],
                         self._den * c.denominator, order, self.level)
        return LaurentSeries(self.valuation, [x * c for x in self.coeffs], order, self.level)

    def _plus(self, c):
        """``self + c`` for a rational ``c != 0`` whose power 0 lies among the coefficients.

        The sum with the constant series of ``c`` adds ``Rat(0)`` to every
        other coefficient.  That changes only an integer (it becomes a
        ``Rat``), so only integers are added to.
        """
        k = -self.valuation
        if self._nums is not None:
            # n/den + c = (n s + [power 0] c.numerator den/g) / (den s), s = c.denominator/g
            den, d = self._den, c.denominator
            g = math.gcd(den, d)
            s = d // g
            nums = [n * s for n in self._nums]
            nums[k] += c.numerator * (den // g)
            return _ints(self.valuation, nums, den * s, self.order, self.level)
        cs = [x + _ZERO if type(x) is int else x for x in self.coeffs]
        cs[k] = self.coeffs[k] + c
        return LaurentSeries(self.valuation, cs, self.order, self.level)

    def _sum(self, b, order):
        """``self + b`` to ``order`` for two series of one level that hold integer numerators."""
        an, bn, da, db = self._nums, b._nums, self._den, b._den
        va, vb = self.valuation, b.valuation
        g = math.gcd(da, db)
        sa, sb = db // g, da // g
        lo = min(va, vb)
        out = [0] * (max(va + len(an), vb + len(bn)) - lo)
        for i, n in enumerate(an, va - lo):
            out[i] = n * sa
        for i, n in enumerate(bn, vb - lo):
            out[i] += n * sb
        return _ints(lo, out, da * sa, order, self.level)

    def __add__(self, other):
        # a rational, or an int as the Rat it equals, acts on the coefficients;
        # anything else is lifted to a series of this level.  An exact zero has
        # order inf and a series is trimmed, so adding it gives this series
        # field for field.
        if type(other) is int:
            other = Rat(other)
        if type(other) is Rat:
            if not other:
                return self
            if self.valuation <= 0 < self.valuation + self._width():
                return self._plus(other)
        b = self._coerce(other)
        if b is None:
            return other + self
        a = self
        order = min(a.order, b.order)
        if a._nums is not None and b._nums is not None:
            return a._sum(b, order)
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
        if self._nums is not None:
            return _ints(self.valuation, [-n for n in self._nums], self._den, self.order,
                         self.level)
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs), self.order, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is Rat:
            return self._scaled(other)
        if type(other) is int:
            return self._scaled(Rat(other))
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
        n = a._width() + b._width() - 1
        if order is not _INF:
            n = min(n, int(order) - v)
        if a._nums is not None and b._nums is not None:
            acc = [0] * n
            _convolve_into(acc, a._nums, b._nums)
            return _ints(v, acc, a._den * b._den, order, self.level)
        cs = [Rat(0)] * n
        _convolve_into(cs, a.coeffs, b.coeffs)
        return LaurentSeries(v, cs, order, self.level)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse, to a number of terms set by the series and the window.

        An exact single term inverts exactly.  An exact polynomial of more
        terms inverts to ``max(len(coeffs), window)`` terms, the window
        being `INVERT_TERMS` or that of `invert_window`.  A truncated unit
        inverts to ``order - valuation`` terms, all it knows, whatever the
        window.  A series held as integer numerators, at any level, runs the
        recurrence in integers (`_int_inverse`); any other runs it over its
        coefficients' ring.
        """
        if self.is_zero():
            if self.is_exact():
                raise PoleError("division by exact zero series")
            raise WindowError("non-invertible at this truncation (all retained coefficients zero)")
        v, width = self.valuation, self._width()
        if self.order is _INF:
            m = _INF if width == 1 else max(width, _invert_terms)
            order = _INF if m is _INF else -v + m
        else:
            m = int(self.order) - v
            order = int(self.order) - 2 * v
        if self._nums is not None:
            return self._int_inverse(1 if m is _INF else m, order)
        cs = self.coeffs
        c0inv = _coeff_invert(cs[0])
        if m is _INF:
            return LaurentSeries(-v, (c0inv,), _INF, self.level)
        d = [c0inv]
        for k in range(1, m):
            acc = Rat(0)
            for i in range(1, min(k, len(cs) - 1) + 1):
                acc = acc + cs[i] * d[k - i]
            d.append(-(c0inv * acc))
        return LaurentSeries(-v, d, order, self.level)

    def _int_inverse(self, m, order):
        """The first ``m`` terms of the inverse of a series of integer numerators, at its level.

        With ``n_i`` the numerators, coefficient ``k`` is
        ``den E_k / n_0^(k+1)``, where ``E_0 = 1`` and
        ``E_k = -sum_{i>=1} n_i n_0^(i-1) E_(k-i)`` are integers.
        """
        nums, den = self._nums, self._den
        n0 = nums[0]
        w, p = [], 1  # w[i - 1] = n_i n_0^(i-1)
        for n in nums[1:m]:
            w.append(n * p)
            p *= n0
        es = [1]
        for _ in range(1, m):  # E_k pairs w[i - 1] with E_(k-i), newest first
            es.append(-sum(map(mul, w, reversed(es))))
        # over the common denominator n_0^m, coefficient k is den E_k n_0^(m-1-k)
        out, p = [0] * m, 1
        for k in range(m - 1, -1, -1):
            out[k] = den * es[k] * p
            p *= n0
        if p < 0:
            out, p = [-n for n in out], -p
        return _ints(-self.valuation, out, p, order, self.level)

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


# Fractions over an integer denominator, whose numerator is an ``int``, or a
# series once a series is met (a series is its own numerator over 1).

def _times(num, den, values):
    """num / den times the product of ``values``, as a numerator and an integer denominator."""
    for v in values:
        num *= v.numerator
        den *= v.denominator
    return num, den


def _plus(num, den, n, d):
    """num/den + n/d, unreduced.

    Equal denominators add the numerators alone; others meet over their gcd.
    """
    if d == den:
        return num + n, den
    g = math.gcd(den, d)
    d //= g
    return num * d + n * (den // g), den * d


def _ratio(num, den):
    """num / den: two ints make one ``Rat``; a series is scaled by 1/den where den is not 1."""
    if type(num) is int:
        return Rat(num, den)
    return num if den == 1 else num / Rat(den)


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
