import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from merosolve.scalars import (
    QComplex,
    canonical_scalar,
    is_exact,
    is_zero,
    mul_frac,
    mul_ratio,
    parse_complex_literal,
    principal_root,
    sum_of_products,
)


def test_exact_arithmetic():
    a = QComplex(1, 2)
    b = QComplex(Fraction(1, 3), -1)
    assert a + b == QComplex(Fraction(4, 3), 1)
    assert a * b == QComplex(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a
    assert a ** 0 == 1
    assert a ** -1 == QComplex(1) / a


def test_i_powers():
    i = QComplex(0, 1)
    assert i * i == -1
    assert i ** 4 == 1
    assert (QComplex(1, 1)) ** 4 == -4


def test_float_contact_degrades_to_complex():
    a = QComplex(1, 2)
    assert isinstance(a + 0.5, complex)
    assert isinstance(0.5 * a, complex)
    assert a + 0.5 == complex(1.5, 2)


def test_rejects_float_construction():
    with pytest.raises(TypeError):
        QComplex(0.5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QComplex(1) / QComplex(0)


def test_equality_and_hash_against_builtins():
    assert QComplex(2) == 2
    assert QComplex(0, 1) == 1j
    assert hash(QComplex(2)) == hash(2)


def test_canonical_scalar_modes():
    assert is_exact(canonical_scalar(3))
    assert is_exact(canonical_scalar(Fraction(1, 2)))
    assert canonical_scalar(0.5) == 0.5 and not is_exact(canonical_scalar(0.5))


def test_is_zero():
    assert is_zero(QComplex(0))
    assert not is_zero(QComplex(0, Fraction(1, 10 ** 12)))
    assert is_zero(1e-15, tol=1e-12)
    assert not is_zero(1e-10, tol=1e-12)


def test_mul_frac_exact_and_float():
    assert mul_frac(QComplex(0, 3), Fraction(1, 3)) == QComplex(0, 1)
    assert abs(mul_frac(3.0 + 0j, Fraction(1, 3)) - 1.0) < 1e-15


def test_mul_ratio_matches_mul_frac():
    for x in (QComplex(Fraction(5, 6), -3), 4, Fraction(-7, 9), -0.0 + 2.5j):
        for num, den in ((-4, 6), (0, 1), (7, 3), (6, 2)):
            got, want = mul_ratio(x, num, den), mul_frac(x, Fraction(num, den))
            assert got == want and repr(got) == repr(want)


@pytest.mark.parametrize(
    "text,expected,exact",
    [
        ("1", QComplex(1), True),
        ("3/2", QComplex(Fraction(3, 2)), True),
        ("-2i", QComplex(0, -2), True),
        ("1+2i", QComplex(1, 2), True),
        ("i", QComplex(0, 1), True),
        ("-i", QComplex(0, -1), True),
        ("1.5", complex(1.5), False),
        ("0.5-0.5i", complex(0.5, -0.5), False),
        ("1e-3", complex(1e-3), False),
        ("3/2-1/2i", QComplex(Fraction(3, 2), Fraction(-1, 2)), True),
        ("0042", QComplex(42), True),
        ("9" * 60, QComplex(int("9" * 60)), True),
        # subnormals and written zeros are kept; only a nonzero literal
        # that rounds to 0.0 is refused
        ("1e-310", complex(1e-310), False),
        ("5e-324", complex(5e-324), False),
        ("0e5", 0j, False),
        ("-00.000e-999", 0j, False),
    ],
)
def test_parse_complex_literal(text, expected, exact):
    value = parse_complex_literal(text)
    assert value == expected
    assert is_exact(value) == exact


@pytest.mark.parametrize("bad", ["", "1+", "2x", "1 2", "--3", "i2"])
def test_parse_complex_literal_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex_literal(bad)


@pytest.mark.parametrize("text", [
    "1e400", "-1e400i", "1e308+1e308", "1e400-1e400", "1" * 400 + "+0.5i",
])
def test_parse_complex_literal_refuses_what_overflows(text):
    # "inf" is no literal; a component or a sum that rounds to it is refused
    # too, with the literal named
    with pytest.raises(OverflowError, match="beyond the float range") as info:
        parse_complex_literal(text)
    assert repr(text) in str(info.value)


@pytest.mark.parametrize("text", [
    "1e-400", "-1e-400i", "0.5+1e-400", "0.000001e-330", ".1E-9999",
])
def test_parse_complex_literal_refuses_what_underflows(text):
    # nonzero as written but 0.0 as a float: the literal would vanish
    with pytest.raises(ValueError, match="underflows to zero") as info:
        parse_complex_literal(text)
    assert repr(text) in str(info.value)


def test_principal_root():
    r = principal_root(-4, 4)
    assert abs(r - (1 + 1j)) < 1e-14
    assert principal_root(0, 3) == 0


# ---------------------------------------------------------------------------
# the Gaussian-integer kernel against a reference pair of Fractions
# ---------------------------------------------------------------------------

fracs = st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9)
qcomplexes = st.builds(QComplex, fracs, fracs)
exact_reals = st.one_of(st.integers(-10 ** 12, 10 ** 12), fracs)


def parts(q):
    return (q.re, q.im)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def ref_pow(x, e):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(e)):
        out = ref_mul(out, x)
    return ref_div((Fraction(1), Fraction(0)), out) if e < 0 else out


def assert_canonical(q):
    assert isinstance(q, QComplex)
    assert q._d > 0
    assert math.gcd(q._a, q._b, q._d) == 1


@settings(max_examples=300, deadline=None)
@given(qcomplexes, qcomplexes)
def test_arithmetic_matches_fraction_pairs(x, y):
    rx, ry = parts(x), parts(y)
    results = {
        "+": (x + y, (rx[0] + ry[0], rx[1] + ry[1])),
        "-": (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
        "*": (x * y, ref_mul(rx, ry)),
        "neg": (-x, (-rx[0], -rx[1])),
        "conj": (x.conjugate(), (rx[0], -rx[1])),
    }
    if y:
        results["/"] = (x / y, ref_div(rx, ry))
    for op, (got, want) in results.items():
        assert_canonical(got)
        assert parts(got) == want, op


@settings(max_examples=200, deadline=None)
@given(qcomplexes, exact_reals)
def test_mixed_exact_operands_match_fraction_pairs(x, r):
    rx, rr = parts(x), (Fraction(r), Fraction(0))
    results = {
        "x+r": (x + r, (rx[0] + rr[0], rx[1])),
        "r+x": (r + x, (rx[0] + rr[0], rx[1])),
        "x-r": (x - r, (rx[0] - rr[0], rx[1])),
        "r-x": (r - x, (rr[0] - rx[0], -rx[1])),
        "x*r": (x * r, ref_mul(rx, rr)),
        "r*x": (r * x, ref_mul(rr, rx)),
    }
    if r:
        results["x/r"] = (x / r, ref_div(rx, rr))
    if x:
        results["r/x"] = (r / x, ref_div(rr, rx))
    for op, (got, want) in results.items():
        assert_canonical(got)
        assert parts(got) == want, op


@settings(max_examples=100, deadline=None)
@given(qcomplexes, st.integers(-6, 6))
def test_integer_powers_match_fraction_pairs(x, e):
    assume(x or e >= 0)
    got = x ** e
    assert_canonical(got)
    assert parts(got) == ref_pow(parts(x), e)


@settings(max_examples=200, deadline=None)
@given(exact_reals)
def test_exact_reals_compare_and_hash_like_builtins(x):
    q = QComplex(x)
    assert_canonical(q)
    assert q == x
    assert hash(q) == hash(x)
    assert str(q) == str(Fraction(x))


@settings(max_examples=100, deadline=None)
@given(qcomplexes)
def test_constructor_copies_and_hash_is_numeric(q):
    copy = QComplex(q)
    assert_canonical(copy)
    assert copy == q and hash(copy) == hash(q)
    assert QComplex(q.re, q.im) == q
    if q.im == 0:
        assert hash(q) == hash(q.re)


def test_zero_is_canonical():
    for z in (QComplex(0), QComplex(Fraction(0, 5), 0), QComplex(3, 4) - QComplex(3, 4)):
        assert (z._a, z._b, z._d) == (0, 0, 1)
        assert not z and z == 0


@pytest.mark.parametrize("re,im", [(0.5, 0), (0, 0.5), (1, 2.0)])
def test_float_parts_rejected(re, im):
    with pytest.raises(TypeError):
        QComplex(re, im)


@settings(max_examples=100, deadline=None)
@given(qcomplexes, st.floats(-1e6, 1e6), st.complex_numbers(max_magnitude=1e6))
def test_float_and_complex_contact_degrades(q, f, z):
    for other in (f, z):
        for got in (q + other, other + q, q - other, other - q, q * other, other * q):
            assert type(got) is complex
        if other:
            assert type(q / other) is complex
        if q:
            assert type(other / q) is complex
    assert q + f == complex(q) + f
    assert q * z == complex(q) * z
    # the conversion rounds each part once, exactly as float(Fraction) does
    assert complex(q) == complex(float(q.re), float(q.im))
    assert abs(q) == math.hypot(float(q.re), float(q.im))


# ---------------------------------------------------------------------------
# sum_of_products against the left fold it replaces
# ---------------------------------------------------------------------------

small_fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40))
small_qcomplexes = st.builds(QComplex, small_fracs, small_fracs)
floats_or_signed_zeros = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
complex_factors = st.builds(complex, floats_or_signed_zeros, floats_or_signed_zeros)


def left_fold(pairs):
    acc = 0
    for x, y in pairs:
        acc = acc + x * y
    return acc


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_qcomplexes, small_qcomplexes), max_size=12))
def test_sum_of_products_equals_exact_fold(pairs):
    got = sum_of_products(pairs)
    assert got == left_fold(pairs)
    if pairs:
        assert_canonical(got)
    else:
        assert got == 0 and type(got) is int


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(small_qcomplexes | complex_factors | st.integers(-3, 3),
              small_qcomplexes | complex_factors),
    max_size=10,
))
def test_sum_of_products_keeps_the_fold_bits_on_mixed_factors(pairs):
    got, want = sum_of_products(pairs), left_fold(pairs)
    assert type(got) is type(want)
    assert got == want
    assert repr(got) == repr(want)


def test_sum_of_products_signed_zeros_follow_the_fold():
    # the fold starts at int 0, so a lone -0.0 part becomes +0.0
    neg_zero = complex(-0.0, -0.0)
    got = sum_of_products([(neg_zero, QComplex(1))])
    assert repr(got) == repr(0 + neg_zero * QComplex(1)) == "0j"
    # after an exact partial sum the fold continues from its float value
    pairs = [(QComplex(1, 1), QComplex(-1, -1)), (QComplex(Fraction(1, 3)), 2.0 + 0j)]
    assert repr(sum_of_products(pairs)) == repr(left_fold(pairs))
