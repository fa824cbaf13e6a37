import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from merosolve import series as series_module
from merosolve.balance import (
    find_balances,
    linear_response,
    linearize,
    rational_resonances,
)
from merosolve.errors import InternalInconsistencyError, TruncationError
from merosolve.odemodel import normalize, parse_ode
from merosolve.scalars import QComplex, is_exact, is_zero, poly_eval
from merosolve.series import (
    PuiseuxSeries,
    cot_laurent,
    solve_local_series,
    substitute,
    synthetic_laurent_solution,
)


def assert_same_through_common_order(a, b):
    """Exact coefficient equality through the common guaranteed order."""
    for s in (a, b):
        assert list(s.coeffs) == sorted(s.coeffs)
    n = a.n * b.n // math.gcd(a.n, b.n)
    a = a._with_branch(n)
    b = b._with_branch(n)
    through = min(a.trunc, b.trunc)
    for j in set(a.coeffs) | set(b.coeffs):
        if j <= through:
            assert a.coeffs.get(j, 0) == b.coeffs.get(j, 0), f"index {j}"


# ---------------------------------------------------------------------------
# stored order
# ---------------------------------------------------------------------------

def test_product_stores_coefficients_in_ascending_index():
    # the nested Cauchy loop first meets the indices 0, 2, 4, then 1, 3, 5
    a = PuiseuxSeries.from_terms([(0, 1), (1, 1)])
    b = PuiseuxSeries.from_terms([(0, 1), (2, 1), (4, 1)])
    assert list((a * b).coeffs) == [0, 1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# powers, differentiation
# ---------------------------------------------------------------------------

def test_pow_identity():
    s = PuiseuxSeries.monomial(QComplex(1), -1)
    prod = s.pow(1) * PuiseuxSeries.monomial(QComplex(1), 1)
    assert prod == PuiseuxSeries.one()


def test_branch_monomial_fourth_power():
    a = QComplex(1, 1)  # a**4 == -4
    s = PuiseuxSeries.monomial(a, 1, n=2)
    out = s.pow(4)
    assert out.coeffs == {4: QComplex(-4)}
    assert out.n == 2


def test_negative_power_raises():
    s = PuiseuxSeries.monomial(QComplex(1), -1)
    with pytest.raises(ValueError):
        s.pow(-1)


def test_differentiate_half_power():
    s = PuiseuxSeries.monomial(QComplex(1), 1, n=2)  # tau^(1/2)
    d = s.differentiate()
    assert d.coeffs == {-1: QComplex(Fraction(1, 2))}


def test_differentiate_twice_branch_monomial():
    a = QComplex(2, 1)
    s = PuiseuxSeries.monomial(a, 1, n=2)
    d2 = s.differentiate(2)
    expected = QComplex(Fraction(-1, 4)) * a
    assert d2.coeffs == {-3: expected}


def test_differentiate_constant():
    s = PuiseuxSeries.monomial(QComplex(5), 0)
    assert s.differentiate().is_zero_series


def test_series_evaluate_matches_closed_form():
    # 1/(1 + tau) = sum (-1)**j tau**j
    geo = PuiseuxSeries.from_terms([(j, (-1) ** j) for j in range(41)], trunc=40)
    tau = 0.1 + 0.05j
    assert abs(geo.evaluate(tau) - 1 / (1 + tau)) < 1e-14


def test_evaluate_branch_selection():
    s = PuiseuxSeries.monomial(QComplex(1), 1, n=2)  # tau^(1/2)
    tau = 0.3
    principal = s.evaluate(tau, branch=0)
    other = s.evaluate(tau, branch=1)
    assert abs(principal - math.sqrt(0.3)) < 1e-14
    assert abs(other + math.sqrt(0.3)) < 1e-14


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def binomial_sqrt_series(trunc):
    """sqrt(1 + (2 tau + tau^2)/2) as an exact series: the recentred profile
    sqrt(1 + t^2) at t = 1 equals sqrt(2) times this."""
    g = PuiseuxSeries.from_terms(
        [(1, QComplex(1)), (2, QComplex(Fraction(1, 2)))], trunc=trunc
    )
    total = PuiseuxSeries.zero(1, trunc)
    power = PuiseuxSeries.one()
    coeff = Fraction(1)
    for k in range(trunc + 1):
        total = total + power.truncate(trunc) * QComplex(coeff)
        power = (power * g).truncate(trunc)
        coeff *= Fraction(1, 2) - k
        coeff /= k + 1
    return total


def test_substitute_exact_profile_recentred():
    # 4 h^3 h'' - 1 vanishes identically for h = sqrt(1 + g), the scaled
    # recentring of the exact width profile sqrt(1 + t^2) about t = 1
    scaled = normalize(parse_ode("4*y^3*y'' - 1"), {})
    h = binomial_sqrt_series(14)
    residual = substitute(scaled, h)
    assert residual.is_zero_series
    assert residual.trunc >= 10


def test_substitute_recentred_profile_float(ep_poly_w0):
    # the same profile fed literally (sqrt(2) * h) into the cleared equation
    h = binomial_sqrt_series(14)
    root2 = math.sqrt(2.0)
    y = PuiseuxSeries(
        1, {j: complex(c) * root2 for j, c in h.coeffs.items()}, h.trunc
    )
    residual = substitute(ep_poly_w0, y)
    worst = max((abs(complex(c)) for c in residual.coeffs.values()), default=0.0)
    assert worst < 1e-12


def test_substitute_cubic_on_simple_pole(w3_poly):
    s = PuiseuxSeries.monomial(QComplex(1), -1)
    residual = substitute(w3_poly, s)
    assert residual.is_zero_series
    assert residual.trunc == math.inf


def test_substitute_branch_monomial_is_exact(ep_poly_w0):
    s = PuiseuxSeries.monomial(QComplex(1, 1), 1, n=2)
    residual = substitute(ep_poly_w0, s)
    assert residual.is_zero_series


def reference_substitute(poly, s):
    """The residual with every monomial's powers built on their own by
    ``PuiseuxSeries.pow``."""
    derivs = [s]
    for _ in range(poly.max_order):
        derivs.append(derivs[-1].differentiate())
    total = PuiseuxSeries.zero(s.n, math.inf)
    for mono in poly.monomials:
        term = PuiseuxSeries.monomial(mono.coeff, 0, n=1)
        for k, d in mono.degrees:
            term = term * derivs[k].pow(d)
        total = total + term
    return total


# the equations of the output goldens in tests/test_golden.py
GOLDEN_EQUATIONS = [
    ("y'' + omega^2*y - y^-3", {"omega": 1}),
    ("y'' + omega^2*y - y^-3", {"omega": Fraction(3, 2)}),
    ("y'' + omega^2*y - y^-3", {"omega": 1.5}),
    ("y'' + omega^2*y - y^-3", {"omega": 0}),
    ("y' + 1 + y^2", {}),
    ("y'' - 2*y^3", {}),
    ("y'' - 6*y^2", {}),
    ("y''' - 12*y*y'", {}),
    ("y'' - y^6", {}),
    ("y'' - 2*(-y)^3", {}),
    ("y'' + k1*y*y' + k2*y^3", {"k1": 3.0, "k2": 1}),
]


@pytest.mark.parametrize("text, env", GOLDEN_EQUATIONS)
def test_substitute_matches_per_monomial_pow(text, env):
    # the squares shared between monomials are the ones pow builds, in the
    # same order: repr pins float coefficients bit for bit
    poly = normalize(parse_ode(text), env)
    cases = []
    for fam in find_balances(poly):
        for a in fam.leading_coeffs:
            y = solve_local_series(poly, fam, a, K=24).series
            cases.append(y)
            cases.append(PuiseuxSeries(
                y.n, {j: complex(c) for j, c in y.coeffs.items()}, y.trunc))
    assert cases
    for y in cases:
        got, want = substitute(poly, y), reference_substitute(poly, y)
        assert got == want
        assert repr(got) == repr(want)


def test_substitute_builds_the_width_square_once(ep_poly, ep_branch_family,
                                                 monkeypatch):
    # y^3*y'' and y^4 share y^2: one product fewer than per-monomial pow
    y = solve_local_series(ep_poly, ep_branch_family,
                           ep_branch_family.leading_coeffs[0], K=48).series
    calls = []
    mul = PuiseuxSeries.__mul__

    def spy(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(PuiseuxSeries, "__mul__", spy)
    shared = substitute(ep_poly, y)
    built = len(calls)
    assert shared == reference_substitute(ep_poly, y)
    assert built == len(calls) - built - 1


# ---------------------------------------------------------------------------
# cot expansion
# ---------------------------------------------------------------------------

def bernoulli_numbers(m):
    """B_0..B_m by the defining recurrence (independent oracle)."""
    out = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * out[k]
        out.append(-acc / (n + 1))
    return out


def test_cot_laurent_reference_values():
    cot = cot_laurent(9)
    assert cot.coeffs[-1] == 1
    assert cot.coeffs[1] == QComplex(Fraction(-1, 3))
    assert cot.coeffs[3] == QComplex(Fraction(-1, 45))
    assert cot.coeffs[5] == QComplex(Fraction(-2, 945))
    assert cot.coeffs[7] == QComplex(Fraction(-1, 4725))
    assert all(j % 2 == 1 or j == -1 for j in cot.coeffs)


def test_cot_laurent_first_order():
    cot = cot_laurent(1)
    assert cot.coeffs == {-1: QComplex(1), 1: QComplex(Fraction(-1, 3))}
    assert cot.trunc == 1


def test_cot_laurent_stores_odd_indices_through_k():
    for K in range(1, 42):
        cot = cot_laurent(K)
        assert cot.trunc == K
        assert list(cot.coeffs) == [-1] + list(range(1, K + 1, 2))


def test_cot_laurent_against_bernoulli_oracle():
    # cot x = 1/x - sum_{k>=1} 2^{2k} |B_{2k}| / (2k)! x^{2k-1}
    cot = cot_laurent(41)
    bern = bernoulli_numbers(42)
    for k in range(1, 22):
        expected = -Fraction(2 ** (2 * k)) * abs(bern[2 * k]) / math.factorial(2 * k)
        assert cot.coeffs[2 * k - 1] == QComplex(expected)


def test_cot_laurent_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        cot_laurent(0)


# ---------------------------------------------------------------------------
# local series solving
# ---------------------------------------------------------------------------

def test_solve_w0_branch_is_pure_monomial(ep_poly_w0, ep_poly):
    from merosolve.balance import find_balances

    fam = next(f for f in find_balances(ep_poly_w0) if f.consistent)
    local = solve_local_series(ep_poly_w0, fam, QComplex(1, 1), K=12)
    assert local.series.coeffs == {1: QComplex(1, 1)}
    assert substitute(ep_poly_w0, local.series).is_zero_series


def test_solve_w1_branch_residual(ep_poly, ep_branch_family):
    local = solve_local_series(ep_poly, ep_branch_family, QComplex(1, 1), K=12)
    residual = substitute(ep_poly, local.series)
    assert residual.is_zero_series  # exact arithmetic throughout
    assert local.series.coeffs[5] == QComplex(Fraction(-1, 3), Fraction(-1, 3))
    checks = {c.resonance: c.satisfied for c in local.compatibility}
    assert checks == {Fraction(1): True}


def test_solve_cubic_exact_pole(w3_poly, w3_family):
    local = solve_local_series(w3_poly, w3_family, 1, K=10)
    assert local.series.coeffs == {-1: QComplex(1)}
    assert local.free_parameters == {Fraction(4): QComplex(0)}


def _weierstrass_p_g2_zero(g3, K):
    """Laurent coefficients of wp(tau; 0, g3) through relative order K, by
    the classical recursion: wp = tau^-2 + sum c_k tau^(2k-2), c_2 = g2/20,
    c_3 = g3/28, c_k = 3/((2k+1)(k-3)) * sum_{m=2}^{k-2} c_m c_{k-m}."""
    c = {2: Fraction(0), 3: Fraction(g3, 28)}
    for k in range(4, K // 2 + 1):
        c[k] = Fraction(3, (2 * k + 1) * (k - 3)) * sum(
            c[m] * c[k - m] for m in range(2, k - 1))
    coeffs = {-2: QComplex(1)}
    coeffs.update({2 * k - 2: QComplex(v) for k, v in c.items() if v and 2 * k <= K})
    return coeffs


def test_weierstrass_p_hand_values():
    # y'' = 6 y^2 is solved by wp with g2 = 0; the free value at the
    # resonance 6 is g3/28, so 1 gives g3 = 28: tau^-2 + tau^4 + tau^10/13
    poly = normalize(parse_ode("y'' - 6*y^2"), {})
    fam = next(f for f in find_balances(poly) if f.consistent)
    assert fam.leading_coeffs == (QComplex(1),)
    free = {Fraction(6): QComplex(1)}
    local = solve_local_series(poly, fam, QComplex(1), K=12, free=free)
    assert local.series.coeffs == {
        -2: QComplex(1), 4: QComplex(1), 10: QComplex(Fraction(1, 13))}
    assert local.series.coeffs == _weierstrass_p_g2_zero(28, 12)
    deep = solve_local_series(poly, fam, QComplex(1), K=48, free=free)
    assert deep.series.coeffs == _weierstrass_p_g2_zero(28, 48)
    # no free value: g3 = 0 and wp is tau^-2 exactly
    bare = solve_local_series(poly, fam, QComplex(1), K=12)
    assert bare.series.coeffs == {-2: QComplex(1)}


def test_cubic_pole_hand_value(w3_poly):
    # y'' = 2 y^3 is solved by -1/tau; the CLI takes the first leading
    # coefficient, -1
    fam = next(f for f in find_balances(w3_poly) if f.consistent)
    assert fam.leading_coeffs == (QComplex(-1), QComplex(1))
    local = solve_local_series(w3_poly, fam, fam.leading_coeffs[0], K=12)
    assert local.series.coeffs == {-1: QComplex(-1)}


def test_free_parameters_stop_at_the_truncation_order(w3_poly, w3_family):
    # the resonance 4 sits at series order 4, beyond K = 3
    local = solve_local_series(
        w3_poly, w3_family, 1, K=3, free={Fraction(4): QComplex(1, 0)}
    )
    assert local.free_parameters == {}
    assert local.compatibility == ()


def test_solve_free_parameter_injection(w3_poly, w3_family):
    local = solve_local_series(
        w3_poly, w3_family, 1, K=10, free={Fraction(4): QComplex(1, 0)}
    )
    assert local.series.coeffs[3] == QComplex(1)
    # the injected branch must still satisfy the equation
    residual = substitute(w3_poly, local.series)
    assert residual.is_zero_series


def test_solve_rejects_wrong_leading_coefficient(ep_poly, ep_branch_family):
    with pytest.raises(ValueError):
        solve_local_series(ep_poly, ep_branch_family, QComplex(2))


def test_solve_raises_when_a_term_needs_unsolved_coefficients(w3_poly, w3_family):
    # with q one step too high, the residual at q + rho would need the
    # coefficient of y at j0 + rho + 1, which is not solved yet
    fam = w3_family.replace(q=w3_family.q + 1)
    with pytest.raises(TruncationError):
        solve_local_series(w3_poly, fam, 1, K=4)
    assert solve_local_series(w3_poly, fam, 1, K=0).series.coeffs == {-1: QComplex(1)}


def test_forced_solve_records_leading_violation(ep_poly):
    from merosolve.balance import find_balances

    fam = next(f for f in find_balances(ep_poly) if f.p == Fraction(-1))
    local = solve_local_series(ep_poly, fam, QComplex(0, 1), K=6, force=True)
    head = local.compatibility[0]
    assert head.resonance == 0
    assert not head.satisfied
    # all solvable orders were actually solved
    residual = substitute(ep_poly, local.series)
    q_idx = int(fam.q)
    nonzero = {j for j, c in residual.coeffs.items()}
    assert nonzero == {q_idx}


def test_free_parameter_count_matches_positive_resonances(
    ep_poly, ep_branch_family, w3_poly, w3_family
):
    for poly, fam, a in (
        (ep_poly, ep_branch_family, QComplex(1, 1)),
        (w3_poly, w3_family, 1),
    ):
        local = solve_local_series(poly, fam, a, K=8)
        positive = [r for r in fam.resonances if r > 0]
        assert set(local.free_parameters) == set(positive)
        assert len(positive) + 1 <= poly.max_order


def test_deep_exact_solve_leaves_no_residual():
    poly = normalize(parse_ode("y'' + omega^2*y - y^-3"), {"omega": Fraction(3, 2)})
    fam = next(f for f in find_balances(poly) if f.consistent)
    K = 192
    q_idx = int(fam.q * fam.branch_order)
    for a in fam.leading_coeffs:
        local = solve_local_series(poly, fam, a, K=K)
        assert all(c.satisfied for c in local.compatibility)
        residual = substitute(poly, local.series)
        assert residual.trunc >= q_idx + K
        assert all(j > q_idx + K for j in residual.coeffs)


def reference_solve(poly, fam, a, K, free=None):
    """The solver's loop without truncation: substitute the whole partial
    series at every order, ``free`` values (default 0) at the resonances."""
    n = fam.branch_order
    j0, q_idx = int(fam.p * n), int(fam.q * n)
    resonant = {r * n: r for r in rational_resonances(fam, a) if r > 0}
    response = linear_response(fam, a)
    coeffs = {j0: a}
    for rho in range(1, K + 1):
        if rho in resonant:
            value = (free or {}).get(resonant[rho], 0)
            if not is_zero(value, 0.0):
                coeffs[j0 + rho] = value
            continue
        e = substitute(poly, PuiseuxSeries(n, coeffs, math.inf)).coeffs.get(q_idx + rho, 0)
        if not is_zero(e, 0.0):
            coeffs[j0 + rho] = -(e / poly_eval(response, Fraction(rho, n)))
    return PuiseuxSeries(n, coeffs, j0 + K)


SOLVE_CASES = [
    ("y'' - c*y^3", {"c": 2}, True, None),
    ("y'' - c*y^3", {"c": 2.0}, False, None),
    ("y''' - c*y*y'", {"c": 12}, True, None),
    ("y''' - c*y*y'", {"c": 12.0}, False, None),
    ("y'' + omega^2*y - y^-3", {"omega": Fraction(3, 2)}, True, None),
    ("y'' + omega^2*y - y^-3", {"omega": 1.5}, False, None),
    ("y'' + omega^2*y - y^-3", {"omega": 0.7}, False, None),
    ("y'' + y - y^3", {}, False, None),  # exact input, irrational a = +-sqrt(2)
    # free values at resonances change which coefficients vanish, so the
    # Cauchy sums run over factors with gaps in their support
    ("y''' - c*y*y'", {"c": 12.0}, False, {Fraction(4): 0.37 - 1.1j, Fraction(6): 1.5 + 0j}),
    ("y''' - c*y*y'", {"c": 12.0}, False, {Fraction(6): -0.8 + 0.3j}),
    ("y'' - c*y^4", {"c": 0.3}, False, {Fraction(10, 3): 0.25 + 0.5j}),  # branch order 3
    ("y'' - c*y^3", {"c": 2}, True, {Fraction(4): QComplex(1)}),
    ("y'' + omega^2*y - y^-3", {"omega": 0}, False, {Fraction(1): 0.37 - 1.1j}),
    # exact up to the resonance, complex from there: the Cauchy sums mix
    # exact and float factors
    ("y'' - c*y^3", {"c": 2}, False, {Fraction(4): 0.37 - 1.1j}),
    # the width terms sit on every 4th index; a free value at resonance 1
    # (index 2) is off that lattice and halves its step
    ("y'' + omega^2*y - y^-3", {"omega": Fraction(3, 2)}, True,
     {Fraction(1): QComplex(Fraction(1, 3))}),
    ("y'' + omega^2*y - y^-3", {"omega": 1.5}, False,
     {Fraction(1): QComplex(Fraction(1, 3))}),
    # exact solves update each node by the change of its factors' tops:
    # two exact roots, gapped supports from exact free values, and an exact
    # root of branch order 3 beside two float ones
    ("y'' - 2*y^3 - 3*y*y'", {}, True, None),
    ("y''' - c*y*y'", {"c": 12}, True,
     {Fraction(4): QComplex(Fraction(37, 100), Fraction(-11, 10)),
      Fraction(6): QComplex(Fraction(3, 2))}),
    ("y'' - c*y^4", {"c": Fraction(80, 243)}, True,
     {Fraction(10, 3): QComplex(Fraction(1, 4), Fraction(1, 2))}),
    # y*(y'' - 2*y^3 - c*y): at a = -1 the free value 2 = c**2/72 cancels
    # the top of y**2 to an exact zero at order 4 and at later orders, and
    # y**4 sums over y**2 as its left factor
    ("y*y'' - 2*y^4 - c*y^2", {"c": 12}, True, {Fraction(4): QComplex(2)}),
]


@pytest.mark.parametrize("text,env,exact,free", [
    # ids in pytest's default form for (text, env, exact)
    pytest.param(*case, id=f"{case[0]}-env{i}-{case[2]}")
    for i, case in enumerate(SOLVE_CASES)
])
def test_truncated_solve_matches_untruncated_reference(text, env, exact, free):
    # `==` on float coefficients pins them bit for bit; the rounding cases
    # and the gapped series show any change of summation order or
    # association
    poly = normalize(parse_ode(text), env)
    fams = [f for f in find_balances(poly) if f.consistent]
    assert fams
    for fam in fams:
        for a in fam.leading_coeffs:
            for K in (16, 48):
                series = solve_local_series(poly, fam, a, K=K, free=free).series
                # a float root of an exact equation gives a float series
                assert series.is_exact == (exact and is_exact(a))
                assert series == reference_solve(poly, fam, a, K, free)


def test_forced_solve_matches_an_every_order_run(ep_poly):
    # the forced residue i on the width's p = -1 family, against the residual
    # of the whole partial series read at every order, resonances included
    fam = next(f for f in find_balances(ep_poly) if f.p == -1)
    # the search linearized this inconsistent family too
    assert fam.linearization == linearize(ep_poly, fam.p, fam.dominant)
    a = QComplex(0, 1)
    j0, q_idx = -1, int(fam.q)
    resonant = {r: r for r in rational_resonances(fam, a)
                if r > 0 and r.denominator == 1}
    response = linear_response(fam, a)
    for K in (24, 48):
        local = solve_local_series(ep_poly, fam, a, K=K, force=True)
        coeffs = {j0: a}
        checks = []
        for rho in range(K + 1):
            e = substitute(ep_poly, PuiseuxSeries(1, coeffs, math.inf)).coeffs.get(
                q_idx + rho, 0)
            if rho == 0 or rho in resonant:
                checks.append((Fraction(rho), e))
                continue
            lam = poly_eval(response, Fraction(rho))
            assert lam
            if e:
                coeffs[j0 + rho] = -(e / lam)
        assert local.series == PuiseuxSeries(1, coeffs, j0 + K)
        assert [(c.resonance, c.residual) for c in local.compatibility] == checks


def test_singular_step_at_a_resonance_the_family_does_not_store(w3_poly,
                                                                w3_family):
    # the solve reads the stored resonances at the family's first root; cut
    # to -1, they make order 4 non-resonant, and the exact response vanishes
    # there
    fam = w3_family.replace(resonances=(Fraction(-1),))
    with pytest.raises(InternalInconsistencyError,
                       match="singular linear step at non-resonant order 4$"):
        solve_local_series(w3_poly, fam, fam.leading_coeffs[0], K=6)


def cauchy_orders(monkeypatch, poly, a, K, free=None):
    """The order of each Cauchy sum the solve runs over a product node's
    pairs, in call order: a node's relative order is the solve's order,
    since every node gains one coefficient per order."""
    orders = []
    entry = series_module._Mul._entry

    def spy(node, r):
        orders.append(r)
        return entry(node, r)

    monkeypatch.setattr(series_module._Mul, "_entry", spy)
    fam = next(f for f in find_balances(poly) if f.consistent)
    solve_local_series(poly, fam, a, K=K, free=free)
    monkeypatch.undo()
    return orders


def test_cauchy_sums_run_only_on_the_terms_lattice(monkeypatch):
    # the width terms sit at offsets 0 and 4 from the balance index, so
    # every other order is an exact zero of every node
    width = normalize(parse_ode("y'' + omega^2*y - y^-3"),
                      {"omega": Fraction(3, 2)})
    a = find_balances(width)[-1].leading_coeffs[0]
    orders = cauchy_orders(monkeypatch, width, a, 48)
    assert set(orders) == set(range(0, 49, 4))
    # a free value at resonance 1 (order 2) brings in every 2nd order
    free = {Fraction(1): QComplex(Fraction(1, 3))}
    assert set(cauchy_orders(monkeypatch, width, a, 48, free)) == \
        set(range(0, 49, 2))
    # both terms of y'' = 2 y^3 sit at the balance index: y = a/tau exactly
    cubic = normalize(parse_ode("y'' - 2*y^3"), {})
    assert set(cauchy_orders(monkeypatch, cubic, QComplex(-1), 12)) == {0}


def test_exact_solve_sums_each_product_once_per_order(monkeypatch):
    # the width plan has 6 product nodes and K = 48 has 13 lattice orders.
    # An exact solve sums each node once per order, then adds the change of
    # its factors' tops; a float solve sums it again, for its bits, at the
    # 12 orders that take a nonzero coefficient
    width = "y'' + omega^2*y - y^-3"
    for omega, sums in ((Fraction(3, 2), 6 * 13), (1.5, 6 * 13 + 6 * 12)):
        poly = normalize(parse_ode(width), {"omega": omega})
        a = find_balances(poly)[-1].leading_coeffs[0]
        orders = cauchy_orders(monkeypatch, poly, a, 48)
        assert len(orders) == sums
        assert set(orders) == set(range(0, 49, 4))


def test_synthetic_laurent_solution_requires_nonzero(ep_poly):
    with pytest.raises(ValueError):
        synthetic_laurent_solution(ep_poly, {}, trunc=3)


# ---------------------------------------------------------------------------
# ring laws (exact mode)
# ---------------------------------------------------------------------------

small_fracs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
exact_scalars = st.builds(QComplex, small_fracs, small_fracs)


@st.composite
def exact_series(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    count = draw(st.integers(0, 4))
    terms = [
        (draw(st.integers(-4, 8)), draw(exact_scalars)) for _ in range(count)
    ]
    top = max((j for j, _ in terms), default=0)
    trunc = top + draw(st.integers(0, 3))
    return PuiseuxSeries.from_terms(terms, n=n, trunc=trunc)


@settings(max_examples=150, deadline=None)
@given(exact_series(), exact_series(), exact_series())
def test_ring_laws(a, b, c):
    assert_same_through_common_order((a + b) + c, a + (b + c))
    assert_same_through_common_order(a * b, b * a)
    assert_same_through_common_order(a * (b + c), a * b + a * c)
    assert_same_through_common_order((a * b) * c, a * (b * c))


@st.composite
def dense_exact_series(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    part = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 30))
    count = draw(st.integers(0, 10))
    terms = [
        (draw(st.integers(-4, 10)), QComplex(draw(part), draw(part)))
        for _ in range(count)
    ]
    top = max((j for j, _ in terms), default=0)
    trunc = top + draw(st.integers(0, 3))
    return PuiseuxSeries.from_terms(terms, n=n, trunc=trunc)


def schoolbook_product(a, b):
    """Product of exact series with one QComplex ``+`` and ``*`` per pair
    of terms, independent of ``PuiseuxSeries.__mul__``."""
    n = a.n * b.n // math.gcd(a.n, b.n)
    fa, fb = n // a.n, n // b.n

    def valuation(s, f):
        return min(s.coeffs) * f if s.coeffs else s.trunc * f + 1

    trunc = min(a.trunc * fa + valuation(b, fb), b.trunc * fb + valuation(a, fa))
    coeffs = {}
    for j1, c1 in a.coeffs.items():
        for j2, c2 in b.coeffs.items():
            j = j1 * fa + j2 * fb
            if j <= trunc:
                coeffs[j] = coeffs.get(j, QComplex(0)) + c1 * c2
    return n, {j: c for j, c in coeffs.items() if c}, trunc


@settings(max_examples=150, deadline=None)
@given(dense_exact_series(), dense_exact_series())
def test_exact_product_matches_schoolbook(a, b):
    product = a * b
    n, coeffs, trunc = schoolbook_product(a, b)
    # QComplex equality compares canonical fields, so this also pins the
    # normalisation of every coefficient
    assert (product.n, product.coeffs, product.trunc) == (n, coeffs, trunc)


@settings(max_examples=150, deadline=None)
@given(exact_series(), exact_series())
def test_product_rule(a, b):
    lhs = (a * b).differentiate()
    rhs = a.differentiate() * b + a * b.differentiate()
    assert_same_through_common_order(lhs, rhs)
