"""Exact Gaussian-rational scalars with a graceful float fallback.

Coefficient arithmetic throughout the package runs in one of two modes:

* exact mode  -- every coefficient is a :class:`QComplex`, a complex number
  stored as a Gaussian-integer numerator ``a + b*i`` over one positive
  integer denominator ``d``; all arithmetic is exact and zero tests are
  decidable;
* float mode  -- coefficients are plain ``complex``; tolerances apply.

Mixing an exact value with a float degrades the result to ``complex``, so a
single float input switches a computation to float mode without ceremony.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction

_EXACT_INPUTS = (int, Fraction)
_gcd = math.gcd
_new = object.__new__


def _parts(x):
    """``(a, b, d)`` of an exact scalar, or None for anything else."""
    if isinstance(x, QComplex):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _norm(a: int, b: int, d: int) -> "QComplex":
    """Canonical ``(a + b*i) / d`` for ``d > 0``: ``gcd(a, b, d) == 1``."""
    g = _gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    q = _new(QComplex)
    q._a = a
    q._b = b
    q._d = d
    return q


def _div(a1, b1, d1, a2, b2, d2) -> "QComplex":
    """``((a1 + b1*i) / d1) / ((a2 + b2*i) / d2)``, as
    ``d2 * (a1 + b1*i) * (a2 - b2*i) / (d1 * (a2**2 + b2**2))``."""
    if b2 == 0:
        if a2 == 0:
            raise ZeroDivisionError("division by exact zero")
        if a2 < 0:
            a2, d2 = -a2, -d2
        return _norm(a1 * d2, b1 * d2, d1 * a2)
    return _norm(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2),
                 d1 * (a2 * a2 + b2 * b2))


class QComplex:
    """Complex number with exact rational real and imaginary parts.

    The value is ``(a + b*i) / d`` with Gaussian-integer numerator
    ``a + b*i`` and one denominator ``d``, kept canonical: ``d > 0`` and
    ``gcd(a, b, d) == 1``, so zero is ``(0, 0, 1)`` and equal values have
    equal fields.  ``re`` and ``im`` are the parts as ``Fraction``.

    Construct from ints, Fractions or strings; floats are rejected on
    purpose so rounding noise never masquerades as an exact value.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, QComplex):
            if im != 0:
                raise TypeError("cannot combine QComplex with extra imaginary part")
            self._a, self._b, self._d = re._a, re._b, re._d
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("QComplex takes int, Fraction or str parts, not float")
        re, im = Fraction(re), Fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr // _gcd(dr, di) * di
        self._a = re.numerator * (d // dr)
        self._b = im.numerator * (d // di)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        p = _parts(other)
        if p is not None:
            a, b, d = p
            if d == self._d:
                return _norm(self._a + a, self._b + b, d)
            return _norm(self._a * d + a * self._d, self._b * d + b * self._d,
                         self._d * d)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        p = _parts(other)
        if p is not None:
            a, b, d = p
            if d == self._d:
                return _norm(self._a - a, self._b - b, d)
            return _norm(self._a * d - a * self._d, self._b * d - b * self._d,
                         self._d * d)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        p = _parts(other)
        if p is not None:
            a, b, d = p
            return _norm(a * self._d - self._a * d, b * self._d - self._b * d,
                         self._d * d)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        p = _parts(other)
        if p is not None:
            a, b, d = p
            sa, sb = self._a, self._b
            if b == 0:
                return _norm(sa * a, sb * a, self._d * d)
            return _norm(sa * a - sb * b, sa * b + sb * a, self._d * d)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = _parts(other)
        if p is not None:
            return _div(self._a, self._b, self._d, *p)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        p = _parts(other)
        if p is not None:
            return _div(*p, self._a, self._b, self._d)
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            if isinstance(exponent, (float, complex)):
                return complex(self) ** exponent
            return NotImplemented
        if exponent < 0:
            return (1 / self) ** (-exponent)
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        q = _new(QComplex)
        q._a, q._b, q._d = -self._a, -self._b, self._d
        return q

    def __pos__(self):
        return self

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        p = _parts(other)
        if p is not None:
            # both sides are canonical, so equal values have equal parts
            return (self._a, self._b, self._d) == p
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        # Follows the unified numeric hash so QComplex(1) hashes like 1.
        h = hash(self.re) + sys.hash_info.imag * hash(self.im)
        h = (h & (2 ** (sys.hash_info.width - 1) - 1)) - (
            h & 2 ** (sys.hash_info.width - 1)
        )
        return -2 if h == -1 else h

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self):
        return math.hypot(self._a / self._d, self._b / self._d)

    def conjugate(self) -> "QComplex":
        q = _new(QComplex)
        q._a, q._b, q._d = self._a, -self._b, self._d
        return q

    def __repr__(self):
        return f"QComplex('{self.re}', '{self.im}')"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_ONE = QComplex(1)
_EXACT_SCALARS = (QComplex,) + _EXACT_INPUTS


def sum_of_products(pairs):
    """The left fold ``0 + x1*y1 + x2*y2 + ...`` over ``(x, y)`` pairs,
    normalised once.

    While both factors of every pair are :class:`QComplex`, the sum is kept
    as an unnormalised Gaussian-integer numerator ``A + B*i`` over the least
    common denominator ``D`` of the products, and one ``_norm`` reduces it at
    the end: the canonical value the fold would reach.  At the first other
    factor the fold takes over: it starts from the exact partial sum (0 when
    no pair came before) and adds the remaining products in order, so float
    sums keep every bit, signed zeros included.
    """
    A = B = D = 0
    it = iter(pairs)
    for x, y in it:
        if x.__class__ is not QComplex or y.__class__ is not QComplex:
            acc = _norm(A, B, D) if D else 0
            acc = acc + x * y
            for x, y in it:
                acc = acc + x * y
            return acc
        a1, b1 = x._a, x._b
        a2, b2 = y._a, y._b
        if b2:
            pa = a1 * a2 - b1 * b2
            pb = a1 * b2 + b1 * a2
        else:
            pa = a1 * a2
            pb = b1 * a2
        d = x._d * y._d
        if d == D:
            A += pa
            B += pb
        elif not D:
            A, B, D = pa, pb, d
        else:
            g = _gcd(D, d)
            if g == d:
                f = D // d
                A += pa * f
                B += pb * f
            else:
                f = d // g
                if g == D:
                    A = A * f + pa
                    B = B * f + pb
                else:
                    e = D // g
                    A = A * f + pa * e
                    B = B * f + pb * e
                D *= f
    return _norm(A, B, D) if D else 0


def canonical_scalar(x):
    """Normalize a coefficient: int/Fraction become QComplex, rest complex."""
    if isinstance(x, QComplex):
        return x
    if isinstance(x, _EXACT_INPUTS):
        return QComplex(x)
    return complex(x)


def is_exact(x) -> bool:
    return isinstance(x, _EXACT_SCALARS)


def to_complex(x) -> complex:
    return complex(x)


def is_zero(x, tol: float = 0.0) -> bool:
    """Zero test: decidable for exact scalars, tolerance-based for floats."""
    if isinstance(x, _EXACT_SCALARS):
        return not x
    return abs(x) <= tol


def mul_frac(x, f: Fraction):
    """Multiply a scalar by an exact rational, staying exact when possible."""
    return mul_ratio(x, f.numerator, f.denominator)


def mul_ratio(x, num: int, den: int):
    """Multiply a scalar by ``num/den`` (``den > 0``), on plain integers
    when the scalar is exact."""
    p = _parts(x)
    if p is not None:
        a, b, d = p
        return _norm(a * num, b * num, d * den)
    return complex(x) * (num / den)


def poly_eval(coeffs, x):
    """Horner evaluation of ascending coefficients at x."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def scalar_pow(x, e: int):
    if isinstance(x, _EXACT_INPUTS):
        x = QComplex(x)
    return x ** e


# An unsigned decimal number: the magnitude of a complex literal's component
# below, and the extent of a number token in ODE text (``odemodel``)
DECIMAL = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")

_COMPONENT = re.compile(
    rf"(?P<mag>\d+/\d+|{DECIMAL.pattern})?(?P<imag>[ij])?$"
)


def parse_complex_literal(text: str):
    """Parse a complex literal like ``1``, ``3/2``, ``-0.5i`` or ``1+2i``.

    This is the one reader of number literals: flag values and the numbers
    in ODE text both come here.  Integer and fraction components yield an
    exact :class:`QComplex`; any decimal or exponent component yields a
    plain ``complex``.  A decimal component that is nonzero as written but
    rounds to 0.0 raises ``ValueError``; a component or a sum beyond the
    float range raises ``OverflowError``.
    """
    if text.isdigit() and text.isascii():
        # the common literal, an exponent or an integer coefficient
        return _norm(int(text), 0, 1)
    s = text.strip()
    if not s:
        raise ValueError("empty complex literal")
    if any(ch.isspace() for ch in s):
        raise ValueError(f"whitespace inside complex literal: {text!r}")
    # split into signed components, keeping exponent signs intact
    parts = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "eE":
            parts.append(s[start:k])
            start = k
    parts.append(s[start:])

    # the real and the imaginary part each sum their exact components
    # exactly and their decimal ones in floats, in the order written
    exact = [0, 0]
    decimal = [0.0, 0.0]
    is_float = False
    for part in parts:
        negative = part[0] == "-"
        m = _COMPONENT.match(part[1:] if part[0] in "+-" else part)
        if not m or not m.group(0):
            raise ValueError(f"bad complex literal: {text!r}")
        mag = m.group("mag")
        k = 1 if m.group("imag") else 0
        if mag is None:
            value = 1
        elif "/" in mag:
            value = Fraction(mag)
        elif mag.isdigit():
            value = int(mag)
        else:
            value = float(mag)
            if value == 0.0 and int(mag.lower().partition("e")[0].replace(".", "")):
                raise ValueError(f"complex literal {text!r} underflows to zero")
            decimal[k] += -value if negative else value
            is_float = True
            continue
        exact[k] += -value if negative else value
    if not is_float:
        return QComplex(*exact)
    # a component or a sum beyond the float range is refused here, as the
    # literal "inf" is: an inf or nan input would fail later, far from it
    try:
        z = complex(float(exact[0]) + decimal[0], float(exact[1]) + decimal[1])
    except OverflowError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise OverflowError(f"complex literal {text!r} is beyond the float range")
    return z


def principal_root(z, n: int) -> complex:
    """Principal n-th root of a complex number (0 maps to 0)."""
    zc = to_complex(z)
    if zc == 0:
        return 0j
    return cmath.exp(cmath.log(zc) / n)
