"""Exact Gaussian-rational scalars with a graceful float fallback.

Coefficient arithmetic throughout the package runs in one of two modes:

* exact mode  -- every coefficient is a :class:`QComplex`, a complex number
  whose real and imaginary parts are ``fractions.Fraction`` values; all
  arithmetic is exact and zero tests are decidable;
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


class QComplex:
    """Complex number with exact rational real and imaginary parts.

    Construct from ints, Fractions or strings; floats are rejected on
    purpose so rounding noise never masquerades as an exact value.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QComplex):
            if im != 0:
                raise TypeError("cannot combine QComplex with extra imaginary part")
            object.__setattr__(self, "re", re.re)
            object.__setattr__(self, "im", re.im)
            return
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("QComplex takes int, Fraction or str parts, not float")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QComplex is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _as_exact(other):
        if isinstance(other, QComplex):
            return other
        if isinstance(other, _EXACT_INPUTS):
            return QComplex(other)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return QComplex(self.re + q.re, self.im + q.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return QComplex(self.re - q.re, self.im - q.im)
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return QComplex(q.re - self.re, q.im - self.im)
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return NotImplemented

    def __mul__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return QComplex(
                self.re * q.re - self.im * q.im,
                self.re * q.im + self.im * q.re,
            )
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = self._as_exact(other)
        if q is not None:
            d = q.re * q.re + q.im * q.im
            if d == 0:
                raise ZeroDivisionError("division by exact zero")
            return QComplex(
                (self.re * q.re + self.im * q.im) / d,
                (self.im * q.re - self.re * q.im) / d,
            )
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return q / self
        if isinstance(other, (float, complex)):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            if isinstance(exponent, (float, complex)):
                return complex(self) ** exponent
            return NotImplemented
        if exponent < 0:
            return (QComplex(1) / self) ** (-exponent)
        result = QComplex(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparisons and conversions --------------------------------------

    def __eq__(self, other):
        q = self._as_exact(other)
        if q is not None:
            return self.re == q.re and self.im == q.im
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
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return math.hypot(float(self.re), float(self.im))

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def __repr__(self):
        return f"QComplex('{self.re}', '{self.im}')"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def canonical_scalar(x):
    """Normalize a coefficient: int/Fraction become QComplex, rest complex."""
    if isinstance(x, QComplex):
        return x
    if isinstance(x, _EXACT_INPUTS):
        return QComplex(x)
    return complex(x)


def is_exact(x) -> bool:
    return isinstance(x, (QComplex,) + _EXACT_INPUTS)


def to_complex(x) -> complex:
    return complex(x)


def is_zero(x, tol: float = 0.0) -> bool:
    """Zero test: decidable for exact scalars, tolerance-based for floats."""
    if isinstance(x, (QComplex,) + _EXACT_INPUTS):
        return x == 0
    return abs(x) <= tol


def mul_frac(x, f: Fraction):
    """Multiply a scalar by an exact rational, staying exact when possible."""
    if isinstance(x, QComplex):
        return QComplex(x.re * f, x.im * f)
    if isinstance(x, _EXACT_INPUTS):
        return QComplex(Fraction(x) * f)
    return complex(x) * float(f)


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


_COMPONENT = re.compile(
    r"""^(?P<mag>
            \d+/\d+
          | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?
        )?(?P<imag>[ij])?$""",
    re.VERBOSE,
)


def parse_complex_literal(text: str):
    """Parse a complex literal like ``1``, ``3/2``, ``-0.5i`` or ``1+2i``.

    Integer and fraction components yield an exact :class:`QComplex`;
    any decimal or exponent component yields a plain ``complex``.
    """
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

    re_sum_exact = Fraction(0)
    im_sum_exact = Fraction(0)
    re_sum_float = 0.0
    im_sum_float = 0.0
    exact = True
    for part in parts:
        sign = 1
        body = part
        if body and body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _COMPONENT.match(body)
        if not m or (m.group("mag") is None and m.group("imag") is None):
            raise ValueError(f"bad complex literal: {text!r}")
        mag = m.group("mag")
        if mag is None:
            value_exact, value_float, part_exact = Fraction(1), 1.0, True
        elif "/" in mag:
            value_exact, value_float, part_exact = Fraction(mag), 0.0, True
        elif "." in mag or "e" in mag or "E" in mag:
            value_exact, value_float, part_exact = Fraction(0), float(mag), False
        else:
            value_exact, value_float, part_exact = Fraction(int(mag)), 0.0, True
        if not part_exact:
            exact = False
        if m.group("imag"):
            im_sum_exact += sign * value_exact
            im_sum_float += sign * value_float
        else:
            re_sum_exact += sign * value_exact
            re_sum_float += sign * value_float
    if exact:
        return QComplex(re_sum_exact, im_sum_exact)
    return complex(
        float(re_sum_exact) + re_sum_float, float(im_sum_exact) + im_sum_float
    )


def principal_root(z, n: int) -> complex:
    """Principal n-th root of a complex number (0 maps to 0)."""
    zc = to_complex(z)
    if zc == 0:
        return 0j
    return cmath.exp(cmath.log(zc) / n)
