import json
import math
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from merosolve import balance, closedform
from merosolve.balance import (
    BalanceFamily,
    compute_resonances,
    find_balances,
    linear_response,
    linearize,
    monomial_exponent,
)
from merosolve.cli import main
from merosolve.errors import DegenerateFamilyError, InternalInconsistencyError
from merosolve.odemodel import (
    DifferentialPolynomial,
    DiffMonomial,
    normalize,
    parse_ode,
)
from merosolve.scalars import QComplex, is_exact, mul_frac, to_complex
from merosolve.series import solve_local_series


def poly_eval(coeffs, a):
    total = 0
    power = 1
    for c in coeffs:
        total = total + c * power
        power = power * a
    return total


# ---------------------------------------------------------------------------
# exponent bookkeeping
# ---------------------------------------------------------------------------

def test_monomial_exponent_hand_values():
    y3y2 = DiffMonomial.from_map(QComplex(1), {0: 3, 2: 1})
    y4 = DiffMonomial.from_map(QComplex(1), {0: 4})
    const = DiffMonomial.from_map(QComplex(-1), {})
    p = Fraction(1, 2)
    assert monomial_exponent(y3y2, p) == 0  # 3*(1/2) + (1/2 - 2)
    assert monomial_exponent(y4, p) == 2
    assert monomial_exponent(const, Fraction(-7, 3)) == 0
    # y'^2 * y''': D = 3, W = 2*1 + 1*3 = 5
    y1y3 = DiffMonomial.from_map(QComplex(1), {1: 2, 3: 1})
    q = Fraction(-2, 3)
    assert monomial_exponent(y1y3, q) == y1y3.total_degree * q - 5 == -7
    assert monomial_exponent(y1y3, q) == 2 * (q - 1) + (q - 3)


# ---------------------------------------------------------------------------
# family search
# ---------------------------------------------------------------------------

def test_width_equation_families(ep_poly):
    start = time.monotonic()
    families = find_balances(ep_poly, n_max=4)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0

    consistent = [f for f in families if f.consistent]
    assert len(consistent) == 1
    fam = consistent[0]
    assert fam.p == Fraction(1, 2)
    assert fam.branch_order == 2
    assert fam.q == 0
    assert len(fam.leading_coeffs) == 4
    for a in fam.leading_coeffs:
        assert abs(to_complex(a) ** 4 + 4) < 1e-10

    fam_m1 = next(f for f in families if f.p == Fraction(-1))
    assert not fam_m1.consistent
    assert fam_m1.leading_coeffs == ()
    # leading equation 2*a^4 = 0
    assert list(fam_m1.leading_poly) == [0, 0, 0, 0, 2]
    assert fam_m1.q == -6


def test_width_equation_exact_roots(ep_poly):
    fam = next(f for f in find_balances(ep_poly) if f.consistent)
    assert set(fam.leading_coeffs) == {
        QComplex(1, 1), QComplex(1, -1), QComplex(-1, 1), QComplex(-1, -1)
    }


def test_cubic_family(w3_poly):
    fam = next(f for f in find_balances(w3_poly) if f.consistent)
    assert fam.p == Fraction(-1)
    assert fam.branch_order == 1
    # leading equation 2a - 2a^3
    assert list(fam.leading_poly) == [0, 2, 0, -2]
    assert set(fam.leading_coeffs) == {QComplex(1), QComplex(-1)}


def test_dominance_invariant(ep_poly, w3_poly, cot_poly):
    for poly in (ep_poly, w3_poly, cot_poly):
        for fam in find_balances(poly):
            exps = [monomial_exponent(m, fam.p) for m in poly.monomials]
            assert min(exps) == fam.q
            for i, e in enumerate(exps):
                if i in fam.dominant:
                    assert e == fam.q
                else:
                    assert e > fam.q


def test_leading_roots_annihilate_leading_polynomial(ep_poly, w3_poly):
    for poly in (ep_poly, w3_poly):
        for fam in find_balances(poly):
            for a in fam.leading_coeffs:
                assert abs(to_complex(poly_eval(fam.leading_poly, a))) < 1e-10


def test_float_cancellation_in_the_leading_polynomial_is_zero():
    # at p = -2, a*y^2*y'' and c*y*y'^2 both weigh into a**3: 0.1*6 - 0.15*4
    # cancels to 1.1e-16 in floats, which is noise and not a root -1.1e-16;
    # a coefficient of the equation that small is kept (test_cli's c=1e-15)
    poly = normalize(parse_ode("a*y^2*y'' + c*y*y'^2 + y^4"),
                     {"a": 0.1, "c": -0.15})
    fam = next(f for f in find_balances(poly) if f.p == -2)
    assert fam.dominant == (0, 1, 2)
    assert fam.leading_poly[3] == 0
    assert not fam.consistent


def test_one_degree_tie_off_the_envelope_is_no_family():
    # y*y'' and y'^2 tie at every p; at p = -1/3, where y^4 meets y', they
    # alone dominate, and their leading equation c(p)*a^2 has no nonzero root
    poly = normalize(parse_ode("y*y'' + y'^2 + y^4 + y'"), {})
    assert [f.p for f in find_balances(poly)] == [-1]


def test_find_balances_deterministic(ep_poly):
    one = find_balances(ep_poly)
    two = find_balances(ep_poly)
    assert one == two


def test_find_balances_rejects_bad_n_max(ep_poly):
    with pytest.raises(ValueError):
        find_balances(ep_poly, n_max=0)


# The Fraction scan over a window of exponents m/n that the envelope search
# replaced, kept as a reference: every candidate's exponents as Fractions,
# the leading polynomial of its dominant monomials, the roots and resonances
# of the families kept.

def reference_exponent(mono, p):
    return sum((Fraction(d) * (p - k) for k, d in mono.degrees), Fraction(0))


def reference_candidates(n_max, window):
    seen = set()
    for n in range(1, n_max + 1):
        for m in range(-window, window + 1):
            if m == 0:
                continue
            p = Fraction(m, n)
            if p.denominator == 1 and p > 0:
                continue
            seen.add(p)
    return sorted(seen)


def reference_leading_polynomial(poly, p, dominant):
    coeffs = [0]
    for idx in dominant:
        mono = poly.monomials[idx]
        weight = Fraction(1)
        for k, d in mono.degrees:
            weight *= balance.falling(p, k) ** d
        s = mono.total_degree
        if len(coeffs) <= s:
            coeffs.extend([0] * (s + 1 - len(coeffs)))
        coeffs[s] = coeffs[s] + mul_frac(mono.coeff, weight)
    return coeffs


def reference_find_balances(poly, n_max, window):
    families = []
    for p in reference_candidates(n_max, window):
        exps = [reference_exponent(m, p) for m in poly.monomials]
        q = min(exps)
        dominant = tuple(i for i, e in enumerate(exps) if e == q)
        two_term = len(dominant) >= 2
        if not two_term and not (p.denominator == 1 and p < 0):
            continue
        lead = reference_leading_polynomial(poly, p, dominant)
        roots = balance._nonzero_roots(lead)
        fam = BalanceFamily(
            p=p, q=q, dominant=dominant, leading_poly=tuple(lead),
            leading_coeffs=roots, resonances=(),
            linearization=linearize(poly, p, dominant),
        )
        if fam.consistent:
            resonances = compute_resonances(poly, fam, roots[0])
            fam = fam.replace(resonances=tuple(resonances))
        families.append(fam)
    return families


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)


def envelope_families(poly, families):
    """The reference families the envelope search reports: the breakpoints,
    where the dominant monomials span two total degrees, and p = -1."""
    return [f for f in families if f.p == -1 or len(
        {poly.monomials[i].total_degree for i in f.dominant}) >= 2]


def numerator_bound(poly) -> int:
    """A window holding every breakpoint (W_i - W_j)/(D_i - D_j) and -1."""
    return max([1] + [m.derivative_weight for m in poly.monomials])


coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)),
    st.builds(QComplex, st.integers(-3, 3), st.integers(-3, 3)).filter(bool),
)
monomial_degrees = st.dictionaries(st.integers(0, 3), st.integers(1, 3), max_size=2)


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.tuples(coefficients, monomial_degrees), min_size=1,
                   max_size=4, unique_by=lambda t: tuple(sorted(t[1].items()))),
    n_max=st.integers(1, 6),
    window=st.integers(1, 8),
)
def test_find_balances_matches_fraction_reference(terms, n_max, window):
    # within the window the search reports exactly the reference's
    # breakpoint families and p = -1, with equal records
    poly = DifferentialPolynomial(
        tuple(DiffMonomial.from_map(c, degrees) for c, degrees in terms))
    got = outcome(find_balances, poly, n_max)
    want = outcome(reference_find_balances, poly, n_max, window)
    if not (isinstance(got, list) and isinstance(want, list)):
        full = reference_find_balances, poly, n_max, numerator_bound(poly)
        assert got == outcome(*full)
        return
    assert [f.p for f in got] == sorted(f.p for f in got)
    assert all(f.branch_order <= n_max for f in got)
    in_window = [f for f in got if abs(f.p.numerator) <= window]
    kept = envelope_families(poly, want)
    assert in_window == kept
    assert repr(in_window) == repr(kept)


def random_ode(rng) -> DifferentialPolynomial:
    """y^(k) plus one to three monomials of one or two factors y^(j)**d,
    k of 2 to 4, j < k and d up to 5, coefficients in +-{1, 2, 3}."""
    k = rng.randint(2, 4)
    terms = {((k, 1),): QComplex(1)}
    for _ in range(rng.randint(1, 3)):
        degrees = {rng.randint(0, k - 1): rng.randint(1, 5)
                   for _ in range(rng.randint(1, 2))}
        terms[tuple(sorted(degrees.items()))] = QComplex(
            rng.choice([-3, -2, -1, 1, 2, 3]))
    return DifferentialPolynomial(tuple(
        DiffMonomial.from_map(c, dict(degrees)) for degrees, c in terms.items()))


def test_envelope_search_misses_no_family_of_a_wide_scan():
    # a scan of every m/n with |m| <= 48 and n <= 24 finds no consistent
    # family, and no breakpoint, that the envelope search lacks; the inputs
    # have consistent families outside the old default scan (|m| <= 6, n <= 4)
    rng = random.Random(7)
    beyond_old_scan = 0
    for _ in range(60):
        poly = random_ode(rng)
        got = find_balances(poly)
        want = reference_find_balances(poly, 24, 48)
        in_scan = [f for f in got
                   if f.branch_order <= 24 and abs(f.p.numerator) <= 48]
        assert in_scan == envelope_families(poly, want)
        beyond_old_scan += sum(f.consistent and (f.branch_order > 4
                                                 or abs(f.p.numerator) > 6)
                               for f in got)
    assert beyond_old_scan


# The search's algebra runs on integers over n**W at p = m/n.  The Fraction
# algebra it replaced, kept as a reference: the falling factorials as
# Fractions, the leading weights and perturbation polynomials summed in
# Fractions and applied to each coefficient once.

def reference_fall_poly_in_r(p, k):
    """Coefficients (ascending, Fractions) of prod_{i<k} (r + p - i)."""
    coeffs = [Fraction(1)]
    for i in range(k):
        shift = p - i
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for deg, c in enumerate(coeffs):
            nxt[deg] += c * shift
            nxt[deg + 1] += c
        coeffs = nxt
    return coeffs


def reference_linearize(poly, p, dominant):
    terms = []
    for idx in dominant:
        mono = poly.monomials[idx]
        out = []
        for k, d in mono.degrees:
            prefactor = Fraction(d) * balance.falling(p, k) ** (d - 1)
            for l, dl in mono.degrees:
                if l != k:
                    prefactor *= balance.falling(p, l) ** dl
            out = balance._poly_add(
                out, [prefactor * c for c in reference_fall_poly_in_r(p, k)])
        terms.append((mono.total_degree,
                      tuple(mul_frac(mono.coeff, c) for c in out)))
    return tuple(terms)


def reference_leading_polynomial_with_noise_rule(poly, p, dominant):
    """``reference_leading_polynomial`` with the search's rule for float
    sums that cancel to within 4 * len(dominant) * eps * sum |phi|."""
    coeffs = reference_leading_polynomial(poly, p, dominant)
    sizes = [0.0] * len(coeffs)
    for idx in dominant:
        mono = poly.monomials[idx]
        if not is_exact(mono.coeff):
            weight = Fraction(1)
            for k, d in mono.degrees:
                weight *= balance.falling(p, k) ** d
            sizes[mono.total_degree] += abs(mul_frac(mono.coeff, weight))
    rounding = 4 * len(dominant) * sys.float_info.epsilon
    return [0j if size and c and abs(c) <= rounding * size else c
            for c, size in zip(coeffs, sizes)]


float_coefficients = st.builds(
    complex,
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.one_of(coefficients, float_coefficients),
                  st.dictionaries(st.integers(0, 4), st.integers(1, 3),
                                  max_size=3)),
        min_size=1, max_size=4, unique_by=lambda t: tuple(sorted(t[1].items()))),
    m=st.integers(-12, 12),
    n=st.integers(1, 7),
)
@example(terms=[(1.5, {2: 1}), (-0.1, {0: 3}), (0.3, {0: 1, 1: 2})], m=-1, n=1)
def test_integer_algebra_matches_the_fraction_reference(terms, m, n):
    # repr pins the canonical fields of exact values and every float bit
    poly = DifferentialPolynomial(
        tuple(DiffMonomial.from_map(c, degrees) for c, degrees in terms))
    p = Fraction(m, n)
    dominant = tuple(range(len(terms)))
    assert repr(linearize(poly, p, dominant)) == \
        repr(reference_linearize(poly, p, dominant))
    assert repr(balance._leading_polynomial(poly, p, dominant)) == \
        repr(reference_leading_polynomial_with_noise_rule(poly, p, dominant))


# ---------------------------------------------------------------------------
# resonances
# ---------------------------------------------------------------------------

def test_cubic_resonances(w3_poly, w3_family):
    res = compute_resonances(w3_poly, w3_family, 1)
    assert res == [Fraction(-1), Fraction(4)]
    assert all(isinstance(r, Fraction) for r in res)


def test_branch_resonances(ep_poly, ep_branch_family):
    res = compute_resonances(ep_poly, ep_branch_family, QComplex(1, 1))
    assert res == [Fraction(-1), Fraction(1)]


def test_resonances_contain_minus_one(ep_poly, w3_poly, cot_poly):
    for poly in (ep_poly, w3_poly, cot_poly):
        for fam in find_balances(poly):
            if fam.consistent:
                assert Fraction(-1) in fam.resonances


def test_free_parameter_count_bounded(ep_poly, w3_poly, cot_poly):
    # nonnegative-real-part resonances + 1 never exceeds the equation order
    for poly in (ep_poly, w3_poly, cot_poly):
        order = poly.max_order
        for fam in find_balances(poly):
            if not fam.consistent:
                continue
            nonneg = [r for r in fam.resonances if r >= 0]
            assert len(nonneg) + 1 <= order


def test_resonance_rejects_zero_leading_coefficient(ep_poly, ep_branch_family):
    with pytest.raises(ValueError):
        compute_resonances(ep_poly, ep_branch_family, 0)


def test_degenerate_family_raises(ep_poly):
    fake = BalanceFamily(
        p=Fraction(-1), q=Fraction(0), dominant=(), leading_poly=(0,),
        leading_coeffs=(QComplex(1),), resonances=(), linearization=(),
    )
    with pytest.raises(DegenerateFamilyError):
        compute_resonances(ep_poly, fake, 1)


def test_linear_response_matches_resonance_roots(w3_poly, w3_family):
    # the response polynomial vanishes exactly at resonances and nowhere else
    response = linear_response(w3_family, 1)
    assert poly_eval(response, Fraction(4)) == 0
    assert poly_eval(response, Fraction(2)) != 0


# ---------------------------------------------------------------------------
# one root rule: exact roots of any denominator, float input stays float
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    num=st.integers(min_value=-12, max_value=12).filter(bool),
    den=st.integers(min_value=1, max_value=12),
)
@example(m=20, num=1, den=1)
@example(m=40, num=1, den=1)
def test_power_law_families_are_exact(m, num, den):
    # y'' = c*y^m with c = p(p-1)/a^(m-1) has the pole or branch family
    # y ~ a*tau^p, p = -2/(m-1), with resonances -1 and 2(m+1)/(m-1)
    a = Fraction(num, den)
    p = Fraction(-2, m - 1)
    c = p * (p - 1) / a ** (m - 1)
    poly = normalize(parse_ode(f"y'' - c*y^{m}"), {"c": QComplex(c)})
    fams = [f for f in find_balances(poly) if f.consistent]
    assert [f.p for f in fams] == [p]
    fam = fams[0]
    r = Fraction(2 * (m + 1), m - 1)
    assert set(fam.resonances) == {Fraction(-1), r}
    assert QComplex(a) in fam.leading_coeffs
    local = solve_local_series(poly, fam, QComplex(a), K=int(r * fam.branch_order))
    assert [(c.resonance, c.satisfied) for c in local.compatibility] == [(r, True)]


def test_three_group_balance_resonances_follow_the_root():
    # leading equation -a(a + 2)(a - 1) = 0 spans three degree groups, so
    # each root has its own resonances
    poly = normalize(parse_ode("y'' - y^3 + y*y'"), {})
    fam = next(f for f in find_balances(poly) if f.consistent)
    assert set(fam.leading_coeffs) == {QComplex(-2), QComplex(1)}
    expected = {QComplex(-2): [Fraction(-1), Fraction(6)],
                QComplex(1): [Fraction(-1), Fraction(3)]}
    for a, resonances in expected.items():
        assert compute_resonances(poly, fam, a) == resonances
        local = solve_local_series(poly, fam, a, K=8)
        assert local.compatibility
        assert all(c.satisfied for c in local.compatibility)


def test_resonance_with_denominator_seven_is_kept(tmp_path):
    out = tmp_path / "out.json"
    rc = main(["analyze", "--ode", "y'' - y^8", "--branch-max", "7",
               "--order", "20", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    fam = next(f for f in payload["balance"]["families"] if f["consistent"])
    assert fam["p"] == "-2/7"
    assert fam["resonances"] == ["-1", "18/7"]


def test_float_coefficients_keep_float_roots():
    poly = normalize(parse_ode("y'' - 1.5*y^3"), {})
    fam = next(f for f in find_balances(poly) if f.consistent)
    assert fam.resonances == (Fraction(-1), Fraction(4))
    assert fam.leading_coeffs
    for a in fam.leading_coeffs:
        assert not is_exact(a)
        assert abs(to_complex(a) ** 2 - 4 / 3) < 1e-12


# ---------------------------------------------------------------------------
# exact roots: square-free decomposition over Q(i), Aberth, the root rule
# ---------------------------------------------------------------------------

def poly_from_roots(roots, lead=QComplex(1)):
    """Ascending coefficients of lead * prod (x - r) over the listed roots."""
    coeffs = [lead]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [hi - r * lo for hi, lo in zip(shifted, coeffs + [0])]
    return coeffs


gaussian_rationals = st.builds(
    lambda re, im, d: QComplex(Fraction(re, d), Fraction(im, d)),
    st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 12),
).filter(bool)


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(st.tuples(gaussian_rationals, st.integers(1, 3)),
                     min_size=1, max_size=8, unique_by=lambda f: f[0])
    .filter(lambda fs: sum(m for _, m in fs) <= 8),
    lead=gaussian_rationals,
)
def test_exact_roots_keep_their_multiplicities(factors, lead):
    roots = [r for r, m in factors for _ in range(m)]
    found = balance._nonzero_roots(poly_from_roots(roots, lead))
    assert all(isinstance(z, QComplex) for z in found)
    assert Counter(found) == Counter(roots)


def test_double_root_with_large_denominator_is_exact():
    # (4001*x - 8003)^2 clears to leading coefficient d = 4001^2 > 1e7; a
    # double root found as two spread numeric roots misses round(z*d)/d
    r = QComplex(Fraction(8003, 4001))
    assert balance._nonzero_roots(poly_from_roots([r, r], QComplex(4001**2))) == (r, r)


def test_close_real_roots_beyond_float_resolution_are_exact():
    # 10**20 and 10**20 + 1 are closer than a float resolves: the numeric
    # roots land millions away, but the quadratic formula is exact
    roots = [QComplex(10**20), QComplex(10**20 + 1)]
    assert balance._nonzero_roots(poly_from_roots(roots)) == tuple(roots)


def aberth_and_snap(coeffs):
    """The numeric roots of exact coeffs snapped by the root rule, a root
    that does not snap as None."""
    d = balance._cleared_lead(coeffs)
    return [balance._snap(coeffs, z, d, True)
            for z in balance._numeric_roots(coeffs)]


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)


@st.composite
def real_quadratics(draw):
    """(kind, coefficients, roots) of lead * prod (x - r): one rational
    root, two, a double one, a Gaussian-conjugate pair or an irrational
    pair u +- w*sqrt(k), k not a square (roots None)."""
    kind = draw(st.sampled_from(
        ["linear", "rational", "double", "conjugate", "irrational"]))
    lead = QComplex(draw(nonzero_rationals))
    u = draw(rationals)
    if kind == "linear":
        roots = [QComplex(u)]
    elif kind == "rational":
        roots = [QComplex(u), QComplex(draw(rationals.filter(lambda v: v != u)))]
    elif kind == "double":
        roots = [QComplex(u), QComplex(u)]
    elif kind == "conjugate":
        v = draw(nonzero_rationals)
        roots = [QComplex(u, -v), QComplex(u, v)]
    else:
        w = draw(nonzero_rationals)
        k = draw(st.sampled_from([2, 3, 5, 6, 7, 10, -2, -3, -5]))
        # x**2 - 2u*x + u**2 - k*w**2
        coeffs = [lead * QComplex(u * u - k * w * w), lead * QComplex(-2 * u), lead]
        return kind, coeffs, None
    return kind, poly_from_roots(roots, lead), roots


@settings(max_examples=200, deadline=None)
@given(case=real_quadratics())
def test_quadratic_formula_matches_aberth_and_snap(case):
    kind, coeffs, roots = case
    got = balance._quadratic_roots(coeffs)
    snapped = aberth_and_snap(coeffs)
    if roots is None:
        assert got == []
        assert snapped == [None, None]
        return
    assert all(isinstance(z, QComplex) for z in got)
    assert Counter(got) == Counter(roots) == Counter(snapped)
    assert len(got) == len(coeffs) - 1  # a double root is listed twice


@pytest.mark.parametrize("coeffs, roots", [
    ([2, -3, 1], [QComplex(1), QComplex(2)]),
    ([Fraction(-1, 4), 0, 1], [QComplex(Fraction(-1, 2)), QComplex(Fraction(1, 2))]),
    ([QComplex(-4), 0j, QComplex(1)], [QComplex(-2), QComplex(2)]),  # float zero
    ([QComplex(0), QComplex(3), QComplex(-6)], [QComplex(0), QComplex(Fraction(1, 2))]),
    ([QComplex(1), 0, QComplex(1)], [QComplex(0, -1), QComplex(0, 1)]),
])
def test_quadratic_formula_on_mixed_exact_coefficients(coeffs, roots):
    assert balance._quadratic_roots(coeffs) == roots


# None where the formula does not apply, [] where no root lies in Q(i)
@pytest.mark.parametrize("coeffs, expected", [
    pytest.param([QComplex(1)], None, id="coeffs0"),  # degree 0
    pytest.param([QComplex(-1), 0, 0, QComplex(1)], None, id="coeffs1"),  # degree 3
    pytest.param([QComplex(1), QComplex(0, 1), QComplex(1)], None,
                 id="coeffs2"),  # a Gaussian coefficient
    pytest.param([QComplex(-2), 0, 1.0 + 0j], None, id="coeffs3"),  # a float coefficient
    pytest.param([QComplex(2), 0, QComplex(1)], [], id="coeffs4"),  # roots +-i*sqrt(2)
])
def test_quadratic_formula_declines(coeffs, expected):
    assert balance._quadratic_roots(coeffs) == expected


def reference_nonzero_roots(coeffs):
    """The nonzero roots by the quadratic formula, else by Aberth and snap,
    sorted: the root rule with no closed form for binomials."""
    roots = balance._quadratic_roots(coeffs)
    if not roots:
        d = balance._cleared_lead(coeffs)
        roots = []
        for z in balance._numeric_roots(coeffs):
            c = balance._snap(coeffs, z, d, True)
            roots.append(z if c is None else c)
    roots.sort(key=lambda z: (to_complex(z).real, to_complex(z).imag))
    return tuple(roots)


def count_numeric_roots(monkeypatch):
    """A list that grows by one at every ``_numeric_roots`` call, from the
    balance search or from the closed forms, which import it."""
    calls = []
    numeric_roots = balance._numeric_roots

    def spy(coeffs):
        calls.append(coeffs)
        return numeric_roots(coeffs)

    monkeypatch.setattr(balance, "_numeric_roots", spy)
    monkeypatch.setattr(closedform, "_numeric_roots", spy)
    return calls


def binomial(c0, cd, d):
    """Ascending coefficients of c0 + cd*x**d."""
    return [c0] + [QComplex(0)] * (d - 1) + [cd]


def random_binomials(rng):
    """Exact binomials c0 + cd*x**d, d = 1..8, with real and Gaussian
    coefficients: x**d = lead*r**d for a rational or Gaussian r (every root
    rational for d = 1, 2, 4, mixed otherwise), r of modulus about 10**20 or
    10**-20, and x**d = k for a random k (irrational roots)."""
    for d in range(1, 9):
        for _ in range(12):
            lead = random_gaussian_rational(rng, rng.random() < 0.5) or QComplex(1)
            kind = rng.choice(["root", "large", "tiny", "any"])
            r = random_gaussian_rational(rng, rng.random() < 0.5) or QComplex(1)
            if kind == "large":
                r = r * rng.choice([10**20, 2**60 + 1, 3 * 10**17])
            elif kind == "tiny":
                r = r / rng.choice([10**20, 2**60 + 1])
            if kind == "any":
                yield binomial(-r, lead, d)
            else:
                yield binomial(-lead * r**d, lead, d)


@pytest.mark.parametrize("coeffs, closed", [
    (binomial(QComplex(4), QComplex(1), 4), True),  # a^4 = -4
    # -1 - a^4/4, as the width equation's leading polynomial has it
    (binomial(QComplex(-1), QComplex(Fraction(-1, 4)), 4), True),
    # a^d = (2/3)^d: every root rational for d = 1, 2, 4, mixed otherwise
    *[(binomial(-QComplex(Fraction(2, 3)) ** d, QComplex(1), d), d in (1, 2, 4))
      for d in range(1, 9)],
    (binomial(QComplex(8), QComplex(1), 3), False),  # -2 and two irrational
    (binomial(QComplex(-2), QComplex(1), 4), False),  # z^4 = 2
    (binomial(QComplex(0, 8), QComplex(1, 1), 3), False),  # Gaussian
])
def test_binomial_closed_form_matches_aberth_and_snap(coeffs, closed, monkeypatch):
    # a binomial whose roots all snap skips Aberth; one with an irrational
    # root reaches it and keeps the bits it printed before
    want = reference_nonzero_roots(coeffs)
    calls = count_numeric_roots(monkeypatch)
    got = balance._nonzero_roots(coeffs)
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))
    assert (not calls) == closed
    assert all(isinstance(z, QComplex) for z in got) == closed


def test_binomial_closed_form_matches_aberth_and_snap_on_a_sweep(monkeypatch):
    rng = random.Random(20261021)
    calls = count_numeric_roots(monkeypatch)
    aberth = Counter()
    for coeffs in random_binomials(rng):
        want = reference_nonzero_roots(coeffs)
        before = len(calls)
        got = balance._nonzero_roots(coeffs)
        # == and repr: the same exact values, the same float bits and kinds
        assert got == want, coeffs
        assert list(map(repr, got)) == list(map(repr, want)), coeffs
        aberth[len(calls) > before] += 1
    # both ways ran: roots all in closed form, and the fallback to Aberth
    assert aberth[False] >= 25 and aberth[True] >= 60


@pytest.mark.parametrize("coeffs", [
    binomial(QComplex(-10**400), QComplex(1), 3),     # w overflows a float
    binomial(QComplex(-1), QComplex(10**400), 3),     # w underflows to 0.0
    binomial(QComplex(-10**400), QComplex(0, 1), 2),  # Gaussian
])
def test_binomial_beyond_floats_fails_as_aberth_does(coeffs):
    # a guess that cannot be formed falls back, so the error is Aberth's
    got = outcome(balance._nonzero_roots, coeffs)
    assert got == outcome(reference_nonzero_roots, coeffs)
    assert got[0] is OverflowError


def test_width_analysis_takes_no_numeric_roots(monkeypatch):
    # the leading equation a^4 = -4 takes its closed form and the forced
    # residue's resonance polynomial r^2 - 3r + 8 (discriminant -23) has no
    # rational root to search for
    from merosolve.report import analyze_payload

    calls = count_numeric_roots(monkeypatch)
    payload = analyze_payload("y'' + omega^2*y - y^-3",
                              {"omega": QComplex(Fraction(3, 2))}, K=48)
    assert payload
    assert calls == []


def real_quadratic_family(coeffs):
    """A family whose resonance polynomial is ``coeffs``: one degree group,
    whose gamma the resonances read as it is."""
    return BalanceFamily(
        p=Fraction(-1), q=Fraction(-3), dominant=(0,), leading_poly=(0,),
        leading_coeffs=(), resonances=(), linearization=((2, tuple(coeffs)),),
    )


def reference_rational_resonances(fam, a):
    """Rational resonances by the quadratic formula, else by Aberth and
    snap: the search that runs on an irrational quadratic as well."""
    coeffs = balance._trim(balance._resonance_poly(fam, QComplex(a)))
    roots = balance._quadratic_roots(coeffs)
    if not roots:
        d = balance._cleared_lead(coeffs)
        snapped = (balance._snap(coeffs, z, d, True)
                   for z in balance._numeric_roots(coeffs))
        roots = [c for c in snapped if c is not None]
    return sorted({z.re for z in roots if z.im == 0})


def test_rational_resonances_skip_the_search_on_irrational_quadratics(monkeypatch):
    rng = random.Random(38)
    calls = count_numeric_roots(monkeypatch)
    kinds = Counter()
    for _ in range(300):
        lead = QComplex(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                 rng.randint(1, 9)))
        u, v = (Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in "uv")
        kind = rng.choice(["rational", "double", "conjugate", "irrational"])
        if kind == "irrational":
            # x^2 - 2u*x + u^2 - k*v^2, roots u +- v*sqrt(k)
            k = rng.choice([2, 3, 5, 7, -1, -2, -23])
            coeffs = [lead * QComplex(u * u - k * v * v), lead * QComplex(-2 * u),
                      lead]
        elif kind == "conjugate":
            coeffs = poly_from_roots([QComplex(u, -v), QComplex(u, v)], lead)
        else:
            roots = [QComplex(u), QComplex(u if kind == "double" else v)]
            coeffs = poly_from_roots(roots, lead)
        fam = real_quadratic_family(coeffs)
        want = reference_rational_resonances(fam, 1)
        before = len(calls)
        assert balance.rational_resonances(fam, 1) == want
        assert len(calls) == before
        kinds[kind] += 1
    assert kinds["irrational"] >= 50
    # the forced residue of the width equation: r^2 - 3r + 8
    fam = real_quadratic_family([QComplex(8), QComplex(-3), QComplex(1)])
    assert balance.rational_resonances(fam, 1) == []


def yun_full_loop(f):
    """Yun's square-free decomposition as the textbook loop, which divides
    on after gcd(f, f') = 1 has shown f square-free."""
    df = balance._pderiv(f)
    g = balance._pgcd(f, df)
    b = balance._pdivmod(f, g)[0]
    c = balance._pdivmod(df, g)[0]
    out = []
    k = 1
    while len(b) > 1:
        d = balance._psub(c, balance._pderiv(b))
        g = balance._pgcd(b, d)
        if len(g) > 1:
            out.append((g, k))
        b = balance._pdivmod(b, g)[0]
        c = balance._pdivmod(d, g)[0]
        k += 1
    return out


def random_gaussian_rational(rng, zero_part=False):
    re = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    im = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    if zero_part:
        re, im = rng.choice([(re, 0), (0, im)])
    return QComplex(re, im)


def test_squarefree_matches_yuns_full_loop():
    rng = random.Random(20261020)
    cases = [
        [QComplex(3)],
        [QComplex(-2), QComplex(1, 1)],
        [QComplex(-4)] + [QComplex(0)] * 4 + [QComplex(1)],  # x^5 - 4
        [QComplex(0, 2)] + [QComplex(0)] * 2 + [QComplex(3)],  # 3x^3 + 2i
        [QComplex(0)] * 3 + [QComplex(3)],  # 3x^3, a binomial with a triple root
    ]
    for _ in range(200):
        factors = []
        while not factors:
            factors = [(random_gaussian_rational(rng), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 4))]
            factors = list(dict(factors).items())
        roots = [r for r, m in factors for _ in range(m)]
        lead = random_gaussian_rational(rng) or QComplex(1)
        cases.append(poly_from_roots(roots, lead))
    for f in cases:
        # repr pins the canonical fields and that every entry is a QComplex
        got = [(list(map(repr, g)), k) for g, k in balance._squarefree(f)]
        want = [(list(map(repr, g)), k) for g, k in yun_full_loop(f)]
        assert got == want


def fraction_content_lead(coeffs):
    """The cleared leading coefficient by the rational content taken over
    the Fraction parts: gcd of the numerators over lcm of the denominators."""
    parts = [x for c in coeffs if is_exact(c)
             for x in (QComplex(c).re, QComplex(c).im)]
    content = Fraction(math.gcd(*(x.numerator for x in parts)),
                       math.lcm(*(x.denominator for x in parts)))
    return QComplex(coeffs[-1]) / content


def test_cleared_lead_matches_the_fraction_content():
    rng = random.Random(7)
    for _ in range(500):
        coeffs = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.15:
                coeffs.append(rng.choice([0, QComplex(0), 0j]))
            elif kind < 0.25:
                coeffs.append(rng.randint(-9, 9))
            else:
                coeffs.append(random_gaussian_rational(rng, kind < 0.6))
        lead = QComplex(0)
        while not lead:
            lead = random_gaussian_rational(rng, rng.random() < 0.5)
        coeffs.append(lead)
        assert repr(balance._cleared_lead(coeffs)) == \
            repr(fraction_content_lead(coeffs))


@pytest.mark.parametrize("root", [
    QComplex(10**150),
    QComplex(2**60 + 1),
    QComplex(3 * 10**40, 4 * 10**40),
])
def test_exact_roots_beyond_float_precision_stay_exact(root):
    # |z*d| >= 2**52: the float root cannot hold the lattice point, so the
    # rounded candidate misses and exact Newton steps finish it
    found = balance._nonzero_roots(poly_from_roots([root, -root]))
    assert all(isinstance(z, QComplex) for z in found)
    assert set(found) == {root, -root}


@pytest.mark.parametrize("roots", [
    [10**100, -10**100, 1],
    [2**60 + 1, -(2**60 + 1), 1],
])
def test_cubic_roots_beyond_float_precision_take_exact_newton_steps(
        roots, monkeypatch):
    # a cubic takes Aberth and snap; the large roots need the exact Newton
    # finish, without which they stay float
    roots = [QComplex(r) for r in roots]
    coeffs = poly_from_roots(roots)
    found = balance._nonzero_roots(coeffs)
    assert all(isinstance(z, QComplex) for z in found)
    assert Counter(found) == Counter(roots)
    monkeypatch.setattr(balance, "_SNAP_NEWTON_STEPS", 0)
    assert not all(isinstance(z, QComplex)
                   for z in balance._nonzero_roots(coeffs))


def test_irrational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = (x**2 - 2) ** 2 * (x**3 - 3 * x + 1) * (2 * x**2 + x + 5) * (3 * x - 1)
    coeffs = [QComplex(Fraction(int(c.p), int(c.q)))
              for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    found = balance._nonzero_roots(coeffs)
    assert [z for z in found if is_exact(z)] == [QComplex(Fraction(1, 3))]
    expected = [complex(sympy.N(r, 30)) for r in sympy.Poly(expr, x).all_roots()]
    assert len(found) == len(expected)
    for z in found:
        match = min(expected, key=lambda w: abs(w - to_complex(z)))
        assert abs(match - to_complex(z)) <= 2e-15 * abs(match)
        expected.remove(match)


def test_real_input_gives_conjugate_closed_roots():
    # a^2 + 2 = 0: -i*sqrt(2) sorts first whatever the rounding noise
    low, high = balance._nonzero_roots([QComplex(2), 0, QComplex(1)])
    assert high == low.conjugate()
    assert low.imag < 0
    # a^3 = 3: the irrational real root is exactly real
    (real,) = [z for z in balance._nonzero_roots([QComplex(-3), 0, 0, QComplex(1)])
               if z.imag == 0]
    assert abs(real - 3 ** (1 / 3)) < 1e-15


def _float_cluster_poly(rng, mult):
    """Ascending float coefficients of lead * (x - r)**mult * prod (x - w),
    with zero to three other roots w; half of them real polynomials."""
    def point():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    if rng.random() < 0.5:
        r, others = rng.uniform(-2, 2), []
        for _ in range(rng.randint(0, 2)):
            w = point()
            others += [w.real] if rng.random() < 0.5 else [w, w.conjugate()]
    else:
        r, others = point(), [point() for _ in range(rng.randint(0, 3))]
    coeffs = [rng.choice([-1, 1]) * rng.uniform(0.5, 4) + 0j]
    for w in [r] * mult + others:
        coeffs = [hi - w * lo for hi, lo in zip([0j] + coeffs, coeffs + [0j])]
    if isinstance(r, float):
        coeffs = [complex(c.real, 0.0) for c in coeffs]
    return r, coeffs


def _cluster_error(roots, r, mult):
    """Largest relative distance from r of the mult roots nearest to it."""
    return max(sorted(abs(complex(z) - r) for z in roots)[:mult]) / max(1.0, abs(r))


def test_float_multiple_roots_match_numpy_accuracy():
    # rounding splits a multiple root of float coefficients into a cluster
    # about eps**(1/mult) wide.  The roots come back without raising, each
    # is a simple root of the coefficients as given (an exact Newton step
    # moves it by at most 1e-12 relative), and their median and worst
    # distance from the multiple root are within 2x of numpy.roots
    np = pytest.importorskip("numpy")
    rng = random.Random(19)
    errors = {2: ([], []), 3: ([], [])}
    for k in range(400):
        mult = 2 + k % 2
        r, coeffs = _float_cluster_poly(rng, mult)
        mine = balance._numeric_roots(coeffs)
        assert len(set(mine)) == len(mine) == len(coeffs) - 1
        exact = [QComplex(Fraction(c.real), Fraction(c.imag)) for c in coeffs]
        for z in mine:
            p, dp = balance._exact_horner2(exact, z)
            assert abs(p) <= 1e-12 * abs(z * dp)
        errors[mult][0].append(_cluster_error(mine, r, mult))
        errors[mult][1].append(_cluster_error(np.roots(coeffs[::-1]), r, mult))
    for mine, ref in errors.values():
        assert statistics.median(mine) <= 2 * statistics.median(ref)
        assert max(mine) <= 2 * max(ref)


def test_unconverged_root_iteration_raises(monkeypatch):
    monkeypatch.setattr(balance, "_ABERTH_MAX_SWEEPS", 1)
    with pytest.raises(InternalInconsistencyError):
        balance._nonzero_roots([QComplex(-2), 0, 0, QComplex(1)])
