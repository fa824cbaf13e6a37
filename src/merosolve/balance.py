"""Dominant-balance search for movable-singularity families.

Substituting ``y ~ a * tau**p`` into a cleared differential polynomial sends
each monomial to a single power of tau, ``D*p - W``: D is its total degree
and W = sum k*d_k its total derivative order.  A family needs the monomials
at the minimal exponent q to span two total degrees: monomials of one degree
D leave the leading equation c(p)*a**D, which has no nonzero root.  So the
families sit at the breakpoints p = (W_i - W_j)/(D_i - D_j) of the lower
envelope min_i (D_i*p - W_i), the edges of the Newton polygon of the points
(D_i, W_i) (Grigoriev & Singer, Trans. AMS 327, 1991; Cano, Analysis 13,
1993).  That set is finite and exact, and the search takes all of it but the
nonnegative integers (regular-point behaviors, not singularities).  p = -1
is reported even off it, so the simple pole always receives a verdict.  At
p = m/n the monomials are compared on integers, by ``D*m - n*W``, and a
family's leading equation needs only the weight
``coeff * prod falling(p, k)**d_k`` of each dominant monomial.  Since
n**k * falling(m/n, k) = prod_{i<k} (m - i*n) is an integer, that weight and
every coefficient of the perturbation polynomial below are an integer over
n**W, applied to the coefficient by one exact (or correctly rounded float)
multiplication.

Every family the search returns is linearized, once, by the search:
``linearize`` builds the perturbation polynomial of each dominant monomial,
and the family keeps them in its ``linearization``.  The resonances
(``rational_resonances``, via ``compute_resonances`` during the search) and
the solver's linear response (``linear_response``) both read that field,
for a consistent family and for the forced residue on an inconsistent one
alike.  The search also stores the resonances at the family's first
leading root, so ``series.solve_local_series`` at that root reads them; a
forced residue or another root solves its own resonance polynomial from
the same linearization.  A family's branch order, consistency and
two-term flag are read off its other fields, not stored.

Roots come one of two ways.  An exact polynomial of degree 1 or 2 with
real coefficients whose discriminant's modulus is a rational square has
its roots in Q(i), and the quadratic formula gives them, on integers.  Any
other polynomial takes the numeric roots below and snaps them.  Exact
coefficients are cleared to primitive Gaussian integers with leading
coefficient d: divided by their rational content, which is read off the
integer fields of the scalars (over the lcm L of their denominators every
real and imaginary part is an integer, and the content is the gcd of those
integers over L).  By the rational-root theorem in Z[i] every root in Q(i)
has a denominator dividing d, so ``round(z*d)/d`` is the only candidate
near a numeric root z, and exact evaluation decides.
Once |z*d| reaches 2**52 a float no longer holds the lattice point, so a
candidate that fails is finished by exact Newton steps, each rounded back
to the 1/d lattice and checked exactly again.
Leading coefficients that fail it stay numeric (irrational roots);
resonances that fail it, or are not real, are left out.  For float
coefficients the leading roots stay numeric and resonances snap to
denominators dividing lcm(360, n), n the family's branch order, so every
resonance on the family's lattice is found.

Every polynomial finds its numeric roots z one way, float coefficients at
the binary rationals they store (a coefficient that is not finite raises
``OverflowError``).  Yun's square-free decomposition over Q(i) splits it
into simple factors f_k of multiplicity k (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 14); a binomial c_0 + c_d*x**d with c_0 != 0, or an
f with gcd(f, f') already constant, is square-free and is its own factor,
made monic, without Yun's loop.  An Aberth-Ehrlich iteration finds the
roots of each f_k, a Newton step on f_k polishes them, and each is listed k
times.  So a repeated root of exact input is as accurate as a simple one,
and conjugate roots of real input share their real part to the bit.  An
iteration that does not converge raises instead of dropping a root.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import zip_longest

from .errors import DegenerateFamilyError, InternalInconsistencyError
from .odemodel import DiffMonomial, DifferentialPolynomial
from .records import Record
from .scalars import (
    QComplex,
    _norm,
    _parts,
    canonical_scalar,
    is_exact,
    is_zero,
    mul_ratio,
    poly_eval,
    scalar_pow,
    to_complex,
)

# A root candidate is evaluated only within this of the numeric root z,
# relative to max(1, |z|).  It spares the exact evaluation of most candidates
# for irrational roots.  Exact input gives roots polished on simple factors,
# near machine precision; float input may have a double root, which rounding
# splits into a cluster spread by about 1e-8, and the bound admits it.
_ROOT_PREFILTER = 1e-7
# Aberth sweeps stop once every correction is below this relative to its
# root; a root that has not converged within the cap raises
_ABERTH_TOL = 1e-12
_ABERTH_MAX_SWEEPS = 500
# a float coefficient this small relative to the largest one is trimmed
_TRIM_REL = 1e-14
# exact Newton steps that finish a root candidate past 2**52 on the lattice
_SNAP_NEWTON_STEPS = 12
# float resonance polynomials snap to denominators dividing the lcm of this
# and the branch order, and must leave a residual <= 1e-8 relative
_FLOAT_RESONANCE_DENOM = 360


def falling(x: Fraction, k: int) -> Fraction:
    """Falling factorial x(x-1)...(x-k+1); empty product for k = 0."""
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


def monomial_exponent(mono: DiffMonomial, p: Fraction) -> Fraction:
    """Leading tau-exponent ``D*p - W`` of a monomial under y ~ a * tau**p."""
    return mono.total_degree * Fraction(p) - mono.derivative_weight


class BalanceFamily(Record):
    """One movable-singularity family: exponent, dominance data, leading
    coefficients, resonances and linearization.  ``branch_order == 1`` is a
    pole family, larger values mark algebraic branch points."""

    # leading_poly: the leading equation's coefficients, ascending in a;
    # leading_coeffs: its nonzero roots, sorted by (re, im); resonances: those
    # at leading_coeffs[0], which the series solve at that root reads instead
    # of solving the polynomial again; linearization: ``linearize(poly, p,
    # dominant)``, read by the resonances at any root and by the linear response
    __slots__ = ("p", "q", "dominant", "leading_poly", "leading_coeffs",
                 "resonances", "linearization")

    @property
    def branch_order(self) -> int:
        return self.p.denominator

    @property
    def consistent(self) -> bool:
        return bool(self.leading_coeffs)

    @property
    def two_term(self) -> bool:
        """False when p = -1 is reported with one dominant monomial."""
        return len(self.dominant) >= 2


def _scaled_falling(m: int, n: int, k: int) -> int:
    """n**k * falling(m/n, k) = prod_{i<k} (m - i*n), an integer."""
    out = 1
    for i in range(k):
        out *= m - i * n
    return out


def _perturbation_poly(mono: DiffMonomial, m: int, n: int):
    """Integer coefficients, ascending in r, of n**W times the polynomial
    multiplying ``a**total_degree`` when y = a*tau**p*(1 + eps*tau**r) is
    linearized inside the monomial, p = m/n and W its derivative weight."""
    scaled = {k: _scaled_falling(m, n, k) for k, _ in mono.degrees}
    out = []
    for k, d in mono.degrees:
        # n**(W-k) * d * falling(p, k)**(d-1) * prod_{l != k} falling(p, l)**d_l
        prefactor = d * scaled[k] ** (d - 1)
        for l, dl in mono.degrees:
            if l != k:
                prefactor *= scaled[l] ** dl
        # times n**k * prod_{i<k} (r + p - i) = prod_{i<k} (n*r + m - i*n)
        coeffs = [prefactor]
        for i in range(k):
            shift = m - i * n
            coeffs = [shift * c + n * lo
                      for c, lo in zip(coeffs + [0], [0] + coeffs)]
        out = _poly_add(out, coeffs)
    return out


def _poly_add(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _trim(coeffs):
    """Drop trailing zeros: exact coefficients that are zero, float ones
    within _TRIM_REL of the largest float coefficient's magnitude."""
    out = list(coeffs)
    tol = 0.0
    if out and not is_exact(out[-1]):
        scale = max(abs(c) for c in out if not is_exact(c))
        tol = _TRIM_REL * scale if scale < math.inf else 0.0  # never trim inf
    while out and is_zero(out[-1], tol):
        out.pop()
    return out


def _leading_polynomial(poly: DifferentialPolynomial, p: Fraction, dominant):
    """Leading equation in the coefficient a, ascending powers: under
    y = a*tau**p each dominant monomial contributes ``phi * a**s``, s its
    total degree and phi = coeff * prod falling(p, k)**d_k.  Only a sum
    can make noise: a float coefficient that cancels to within the rounding
    of its own terms, 4 * len(dominant) * eps * sum |phi|, is zero.  A
    coefficient of any other size belongs to the equation, however small."""
    m, n = p.numerator, p.denominator
    coeffs = [0]
    sizes = [0.0]  # sum |phi| over the float terms of each coefficient
    for idx in dominant:
        mono = poly.monomials[idx]
        weight = 1  # n**W * prod falling(p, k)**d_k
        for k, d in mono.degrees:
            weight *= _scaled_falling(m, n, k) ** d
        s = mono.total_degree
        if len(coeffs) <= s:
            coeffs.extend([0] * (s + 1 - len(coeffs)))
            sizes.extend([0.0] * (s + 1 - len(sizes)))
        phi = mul_ratio(mono.coeff, weight, n ** mono.derivative_weight)
        coeffs[s] = coeffs[s] + phi
        if not is_exact(phi):
            sizes[s] += abs(phi)
    # a float sum cancels only against terms of about its own float terms'
    # size, so those bound its rounding even when exact terms join in
    rounding = 4 * len(dominant) * sys.float_info.epsilon
    return [0j if size and c and abs(c) <= rounding * size else c
            for c, size in zip(coeffs, sizes)]


def linearize(poly: DifferentialPolynomial, p: Fraction, dominant) -> tuple:
    """The dominant monomials (indices ``dominant`` into ``poly``) linearized
    about y = a*tau**p.  Under y = a*tau**p*(1 + eps*tau**r) the monomial of
    total degree s gains ``eps * gamma(r) * a**s`` at relative order r; the
    result holds one pair (s, gamma) per dominant monomial, gamma a tuple
    scaled by the monomial's coefficient and ascending in r.  The family's
    leading polynomial holds, at a**s, the sum phi of the same monomials'
    leading weights."""
    m, n = p.numerator, p.denominator
    terms = []
    for idx in dominant:
        mono = poly.monomials[idx]
        den = n ** mono.derivative_weight
        gamma = tuple([mul_ratio(mono.coeff, c, den)
                       for c in _perturbation_poly(mono, m, n)])
        terms.append((mono.total_degree, gamma))
    return tuple(terms)


def _resonance_poly(fam: BalanceFamily, a):
    """Polynomial whose roots are the resonances.  With at most two
    total-degree groups the leading equation eliminates a, so the result is
    exact for exact input; otherwise it is the linear response R(r)/a at the
    given a, which has the roots of R(r)."""
    groups = {}
    for s, gamma in fam.linearization:
        groups[s] = _poly_add(groups.get(s, []), gamma)
    if len(groups) == 1:
        (gamma,) = groups.values()
        return gamma
    if len(groups) == 2:
        s1, s2 = sorted(groups)
        phi1, phi2 = fam.leading_poly[s1], fam.leading_poly[s2]
        return _poly_add([phi2 * c for c in groups[s1]],
                         [-(phi1 * c) for c in groups[s2]])
    return linear_response(fam, a)


def linear_response(fam: BalanceFamily, a):
    """Response polynomial R(r)/a, ascending in r.  Its value at r is the
    coefficient multiplying a raw series coefficient injected at relative
    order r: the scaled perturbation y = a*tau**p*(1 + eps*tau**r) responds
    with eps * R(r), and a raw coefficient delta at the same order
    corresponds to eps = delta/a.

    It is summed as a**(s-1) * gamma, never as (a**s * gamma)/a: for a tiny
    float a (|a| ~ 1e-110 when y'' = c*y^3 at c = 1e220) a**s underflows to
    0 where a**(s-1) does not.  A monomial of total degree 0 is free of y,
    so its gamma is empty and it adds nothing."""
    a = canonical_scalar(a)
    out = []
    for s, gamma in fam.linearization:
        if gamma:
            out = _poly_add(out, [scalar_pow(a, s - 1) * c for c in gamma])
    return out


def _is_exact_poly(coeffs) -> bool:
    return all(is_exact(c) or c == 0 for c in coeffs)


# Polynomials over Q(i) for the square-free decomposition: ascending lists
# of QComplex without trailing zeros, so the zero polynomial is [].

def _pderiv(f):
    return _trim([c * k for k, c in enumerate(f)][1:])


def _psub(f, g):
    return _trim([x - y for x, y in zip_longest(f, g, fillvalue=0)])


def _pdivmod(f, g):
    """Quotient and remainder of f by a nonzero g."""
    rem = list(f)
    n = len(g) - 1
    inv = 1 / g[n]
    quo = [0] * max(0, len(f) - n)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + n] * inv
        quo[k] = c
        if c:
            for j in range(n):
                if g[j]:
                    rem[k + j] -= c * g[j]
    return quo, _trim(rem[:n])


def _pgcd(f, g):
    """Monic gcd of f and g, not both zero."""
    while g:
        f, g = g, _pdivmod(f, g)[1]
    inv = 1 / f[-1]
    return [c * inv for c in f]


def _squarefree(f):
    """Yun's square-free decomposition: pairs (f_k, k) of monic square-free
    factors of positive degree with f = lead * prod f_k**k.  A binomial
    with a nonzero constant term, or a constant gcd(f, f'), shows f
    square-free, and Yun's loop would return f made monic."""
    if len(f) == 1:
        return []
    df = _pderiv(f)
    # a binomial c_0 + c_d*x**d with c_0 != 0 shares no root with its
    # derivative d*c_d*x**(d-1), so it is square-free without the gcd
    g = [1] if f[0] and not any(f[1:-1]) else _pgcd(f, df)
    if len(g) == 1:
        inv = 1 / f[-1]
        return [([c * inv for c in f], 1)]
    b = _pdivmod(f, g)[0]
    c = _pdivmod(df, g)[0]
    out = []
    k = 1
    while len(b) > 1:
        d = _psub(c, _pderiv(b))
        g = _pgcd(b, d)
        if len(g) > 1:
            out.append((g, k))
        b = _pdivmod(b, g)[0]
        c = _pdivmod(d, g)[0]
        k += 1
    return out


def _horner2(coeffs, z):
    """Value and derivative at z of ascending complex coefficients."""
    p = dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _exact_horner2(f, z):
    """Value and derivative at z of exact coefficients f, evaluated exactly
    at the binary rational z and rounded once."""
    x = QComplex(Fraction(z.real), Fraction(z.imag))
    return complex(poly_eval(f, x)), complex(poly_eval(_pderiv(f), x))


def _sweeps(evaluate, f, zs, pending):
    """Aberth-Ehrlich sweeps over the roots ``pending`` of ``zs``, in place,
    on ``evaluate(f, z)``; returns the roots still moving at the cap."""
    for _ in range(_ABERTH_MAX_SWEEPS):
        moving = []
        for i in pending:
            z = zs[i]
            p, dp = evaluate(f, z)
            if not p:
                continue
            try:
                s = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
                step = p / (dp - p * s)
            except ZeroDivisionError:
                moving.append(i)
                continue
            zs[i] = z - step
            if not abs(step) <= _ABERTH_TOL * abs(zs[i]):  # NaN keeps moving
                moving.append(i)
        if not moving:
            break
        pending = moving
    return moving


def _horner_rounding(sizes, x: float) -> float:
    """Horner's rounding bound 2n * eps * sum |c_k| x**k on the value of a
    degree-n polynomial at a point of modulus x, from the moduli ``sizes``
    of its coefficients (Higham, *Accuracy and Stability*, 5.1): a float
    value within it is zero as far as floats can tell."""
    return 2 * (len(sizes) - 1) * sys.float_info.epsilon * poly_eval(sizes, x)


def _aberth(f):
    """Roots of a monic square-free f with nonzero constant term:
    Aberth-Ehrlich sweeps from a circle of radius max |f_k|**(1/(n-k)),
    within a factor n of the largest root, then a Newton step.  Rounding
    splits a multiple root of float input into a cluster where f in floating
    point is noise: Horner's rounding bound 2n * eps * sum |f_k| |z|**k
    (Higham, *Accuracy and Stability*, 5.1) over |z f'(z)| exceeds the stop
    test, or the root does not converge.  Such roots restart on a circle
    about their centre and finish on exact values of f."""
    coeffs = [complex(c) for c in f]
    n = len(coeffs) - 1
    radius = max(abs(c) ** (1.0 / (n - k)) for k, c in enumerate(coeffs[:-1]))
    zs = [radius * cmath.exp(1j * (2 * math.pi * j / n + 0.5)) for j in range(n)]
    stalled = _sweeps(_horner2, coeffs, zs, range(n))
    values = [_horner2(coeffs, z) for z in zs]
    weights = [abs(c) for c in coeffs]
    noisy = [
        i for i, (z, (_, dp)) in enumerate(zip(zs, values))
        if i in stalled
        or not _horner_rounding(weights, abs(z)) <= _ABERTH_TOL * abs(z * dp)
    ]
    if noisy:
        # tilted as the first circle is: a pair started on the vertical
        # through a real double root of a real f would stay on it
        m = len(noisy)
        centre = sum(zs[i] for i in noisy) / m
        spread = max([abs(zs[i] - centre) for i in noisy]
                     + [_ABERTH_TOL * max(1.0, abs(centre))])
        for j, i in enumerate(noisy):
            zs[i] = centre + spread * cmath.exp(1j * (2 * math.pi * j / m + 0.5))
        if _sweeps(_exact_horner2, f, zs, noisy):
            raise InternalInconsistencyError(
                f"Aberth iteration did not converge on a degree-{n} factor"
            )
        for i in noisy:
            values[i] = _exact_horner2(f, zs[i])
    # a Newton step on f alone: the root no longer depends on where the
    # other approximations stood when it stopped moving
    zs = [z - p / dp if dp else z for z, (p, dp) in zip(zs, values)]
    if all(c.imag == 0 for c in coeffs):
        zs = _conjugate_closed(zs)
    return zs


def _conjugate_closed(zs):
    """Roots of a real polynomial, closed under conjugation: a root nearest
    to its own conjugate is real, any other one with negative imaginary part
    becomes the conjugate of the root nearest to its conjugate.  Conjugate
    pairs then share their real part to the bit, so sorting by (re, im)
    orders them by the sign of im and not by rounding noise."""
    out = []
    for i, z in enumerate(zs):
        j = min(range(len(zs)), key=lambda k: abs(zs[k] - z.conjugate()))
        if j == i:
            z = complex(z.real, 0.0)
        elif z.imag < 0:
            z = zs[j].conjugate()
        out.append(z)
    return out


def _numeric_roots(coeffs):
    """Numeric roots of a polynomial with a nonzero coefficient, each listed
    by its multiplicity.  A float coefficient is the binary rational it
    stores."""
    f = []
    for c in coeffs:
        if not is_exact(c):
            if not cmath.isfinite(c):
                raise OverflowError(f"polynomial coefficient {c} is not finite")
            c = QComplex(Fraction(c.real), Fraction(c.imag))
        f.append(QComplex(c))
    low = 0
    while not f[low]:
        low += 1
    roots = [0j] * low
    for g, k in _squarefree(f[low:]):
        roots.extend(z for z in _aberth(g) for _ in range(k))
    return roots


def _cleared_lead(coeffs):
    """Leading coefficient of exact coefficients cleared to primitive
    Gaussian integers: divided by their rational content.  Over the lcm L
    of the denominators every part is an integer, and the content is the
    gcd of those integers over L."""
    parts = [p for c in coeffs if (p := _parts(c)) is not None]
    lcm = math.lcm(*(d for _, _, d in parts))
    content = math.gcd(*(x * (lcm // d) for a, b, d in parts for x in (a, b)))
    a, b, d = parts[-1]
    return _norm(a * lcm, b * lcm, d * content)


def _snap(coeffs, z, d, exact: bool):
    """The root rule: ``round(z*d)/d`` when it lies near the numeric root z
    and is a root of coeffs (exactly for exact coeffs, to 1e-8 relative
    otherwise); else None.  Past |z*d| = 2**52 the float z*d need not hold
    the lattice point, so an exact candidate that fails takes up to
    _SNAP_NEWTON_STEPS exact Newton steps, each rounded to the 1/d lattice."""
    w = z * complex(d)
    cand = _norm(round(w.real), round(w.imag), 1) / d
    if abs(complex(cand) - z) > _ROOT_PREFILTER * max(1.0, abs(z)):
        return None
    value = poly_eval(coeffs, cand)
    if exact:
        if value and abs(w) >= 2.0 ** 52:
            deriv = _pderiv(coeffs)
            for _ in range(_SNAP_NEWTON_STEPS):
                slope = poly_eval(deriv, cand)
                if not slope:
                    break
                x = (cand - value / slope) * d
                cand = _norm(round(x.re), round(x.im), 1) / d
                value = poly_eval(coeffs, cand)
                if not value:
                    break
        return cand if value == 0 else None
    scale = max(abs(to_complex(c)) for c in coeffs)
    return cand if abs(to_complex(value)) <= 1e-8 * scale else None


def _quadratic_roots(coeffs):
    """Roots in Q(i) of exact coefficients of degree 1 or 2 that are all
    real, listed by multiplicity, from the quadratic formula when |disc| is
    a square; else None (irrational roots, other degrees, non-real or float
    coefficients).  Cleared to integers c + b*x + a*x**2 with a > 0, the
    roots are (-b -+ sqrt(disc))/(2a)."""
    if not 2 <= len(coeffs) <= 3:
        return None
    parts = []
    for c in coeffs:
        x = _parts(c)
        if x is None:
            if c:
                return None
            x = (0, 0, 1)  # the float zero of an exact polynomial
        elif x[1]:
            return None
        parts.append(x)
    lcm = math.lcm(*(d for _, _, d in parts))
    ints = [a * (lcm // d) for a, _, d in parts]
    if ints[-1] < 0:
        ints = [-x for x in ints]
    if len(ints) == 2:
        return [_norm(-ints[0], 0, ints[1])]
    c, b, a = ints
    disc = b * b - 4 * a * c
    s = math.isqrt(abs(disc))
    if s * s != abs(disc):
        return None
    if disc < 0:
        return [_norm(-b, -s, 2 * a), _norm(-b, s, 2 * a)]
    return [_norm(-b - s, 0, 2 * a), _norm(-b + s, 0, 2 * a)]


def _nonzero_roots(lead_coeffs):
    """Nonzero roots of the leading polynomial, sorted by (re, im): exact
    where the root rule finds them, numeric otherwise."""
    core = list(lead_coeffs)
    while core and not core[-1]:
        core.pop()
    low = 0
    while low < len(core) and not core[low]:
        low += 1
    core = core[low:]
    if len(core) <= 1:
        return ()
    exact = _is_exact_poly(core)
    roots = _quadratic_roots(core) if exact else None
    if roots is None:
        roots = _numeric_roots(core)
        if exact:
            d = _cleared_lead(core)
            snapped = (_snap(core, z, d, True) for z in roots)
            roots = [z if c is None else c for z, c in zip(roots, snapped)]
    roots.sort(key=lambda z: (to_complex(z).real, to_complex(z).imag))
    return tuple(roots)


def rational_resonances(fam: BalanceFamily, a):
    """Rational resonances (orders at which free coefficients enter) of one
    linearized family at leading coefficient a, sorted.  Roots that are not
    real and rational are left out; callers decide whether that is an
    error.  There is no -1 membership requirement, so force-solved
    families, whose leading equation is knowingly violated, use this
    directly."""
    coeffs = _trim(_resonance_poly(fam, canonical_scalar(a)))
    if not coeffs:
        raise DegenerateFamilyError(
            f"degenerate family at p = {fam.p}: resonance polynomial vanishes"
        )
    exact = _is_exact_poly(coeffs)
    roots = _quadratic_roots(coeffs) if exact else None
    if roots is None:
        if exact:
            d = _cleared_lead(coeffs)
        else:
            d = math.lcm(_FLOAT_RESONANCE_DENOM, fam.branch_order)
        snapped = (_snap(coeffs, z, d, exact) for z in _numeric_roots(coeffs))
        roots = [c for c in snapped if c is not None]
    return sorted({z.re for z in roots if z.im == 0})


def compute_resonances(poly: DifferentialPolynomial, fam: BalanceFamily, a):
    """Resonances of one family at a nonzero leading coefficient a.

    -1 must appear (it tracks the free singularity location); its absence
    signals an inconsistent balance and raises.
    """
    a = canonical_scalar(a)
    if is_zero(a, 0.0):
        raise ValueError("leading coefficient must be nonzero")
    roots = rational_resonances(fam, a)
    if Fraction(-1) not in roots:
        raise InternalInconsistencyError(
            f"resonance -1 missing for family p = {fam.p}; balance inconsistent"
        )
    return roots


def find_balances(poly: DifferentialPolynomial, n_max: int | None = None):
    """All balance families, sorted by exponent: one per envelope
    breakpoint, and p = -1.  ``n_max`` caps the branch order when given.

    Families whose leading equation has only the zero root are reported with
    ``consistent=False`` rather than dropped.
    """
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be at least 1")
    weights = [(mono.total_degree, mono.derivative_weight)
               for mono in poly.monomials]
    points = set(weights)
    candidates = {Fraction(-1)}
    for d1, w1 in points:
        for d2, w2 in points:
            if d1 > d2:
                p = Fraction(w1 - w2, d1 - d2)
                if ((p < 0 or p.denominator > 1)
                        and (n_max is None or p.denominator <= n_max)):
                    candidates.add(p)
    families = []
    for p in sorted(candidates):
        m, n = p.numerator, p.denominator
        exps = [deg * m - n * w for deg, w in weights]  # n * (D*p - W)
        low = min(exps)
        dominant = tuple(i for i, e in enumerate(exps) if e == low)
        if p != -1 and len({weights[i][0] for i in dominant}) < 2:
            continue  # one total degree: c(p)*a**D has no nonzero root
        lead = _leading_polynomial(poly, p, dominant)
        # a single dominant monomial leaves one term: no nonzero root
        roots = _nonzero_roots(lead) if len(dominant) >= 2 else ()
        fam = BalanceFamily(
            p=p,
            q=Fraction(low, n),
            dominant=dominant,
            leading_poly=tuple(lead),
            leading_coeffs=roots,
            resonances=(),
            linearization=linearize(poly, p, dominant),
        )
        if roots:
            resonances = compute_resonances(poly, fam, roots[0])
            fam = fam.replace(resonances=tuple(resonances))
        families.append(fam)
    return families
