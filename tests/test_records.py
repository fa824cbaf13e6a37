"""The records that carry the pipeline's data: the behaviour the
generated dataclass methods had is kept by the slots classes that replace
them.  The expected repr strings were printed by the dataclass records;
the family's ``linearization`` field came later and prints last, and its
branch order, consistency and two-term flag are now read off the other
fields, so they no longer print."""

import copy
import pickle
from fractions import Fraction

import pytest

from merosolve.balance import find_balances
from merosolve.closedform import ClosedFormCandidate
from merosolve.numeric import ComplexTrajectory, SingularityProbe, TrajectoryPoint
from merosolve.odemodel import (
    Add,
    Const,
    DifferentialPolynomial,
    DiffMonomial,
    Mul,
    Param,
    Pow,
    Y,
    normalize,
    parse_ode,
)
from merosolve.scalars import QComplex
from merosolve.series import solve_local_series

AST_REPR = (
    "Add(terms=(Y(order=2), Mul(factors=(Const(value=QComplex('-2', '0')), "
    'Pow(base=Y(order=0), exponent=3))), '
    'Mul(factors=(Const(value=(1.5+0j)), Y(order=1)))))'
)
MONOMIAL_REPR = (
    "DiffMonomial(coeff=QComplex('3', '-1'), degrees=((0, 2), (1, 1)))"
)
FAMILY_REPR = (
    'BalanceFamily(p=Fraction(-1, 1), q=Fraction(-3, 1), '
    "dominant=(0, 1), leading_poly=(0, QComplex('2', '0'), 0, "
    "QComplex('-2', '0')), leading_coeffs=(QComplex('-1', '0'), "
    "QComplex('1', '0')), resonances=(Fraction(-1, 1), "
    "Fraction(4, 1)), linearization=((3, (QComplex('-6', "
    "'0'),)), (1, (QComplex('2', '0'), QComplex('-3', '0'), QComplex('1', "
    "'0')))))"
)
LOCAL_REPR = (
    'LocalSolution(family=BalanceFamily(p=Fraction(-1, 1), '
    "q=Fraction(-3, 1), dominant=(0, 1), leading_poly=(0, QComplex('2', "
    "'0'), 0, QComplex('-2', '0')), leading_coeffs=(QComplex('-1', '0'), "
    "QComplex('1', '0')), resonances=(Fraction(-1, 1), "
    "Fraction(4, 1)), linearization=((3, (QComplex('-6', "
    "'0'),)), (1, (QComplex('2', '0'), QComplex('-3', '0'), QComplex('1', "
    "'0'))))), a=QComplex('-1', '0'), "
    'series=PuiseuxSeries((-1)*tau^(-1/1); trunc=3), '
    "free_parameters={Fraction(4, 1): QComplex('0', '0')}, "
    'compatibility=(CompatibilityCheck(resonance=Fraction(4, 1), '
    'satisfied=True, residual=0),), '
    "poly=DifferentialPolynomial(monomials=(DiffMonomial(coeff=QComplex('-2', "
    "'0'), degrees=((0, 3),)), DiffMonomial(coeff=QComplex('1', '0'), "
    'degrees=((2, 1),))), clearing_multiplier=0))'
)
TRAJECTORY_REPR = (
    'ComplexTrajectory(samples=[TrajectoryPoint(t=0j, value=(1+0j), '
    'slope=(-0-0.5j))], singular_near_zero=False, '
    "halt_reason='step size underflow', halt_kind='underflow', "
    "stats={'accepted': 1})"
)


@pytest.fixture
def w3():
    poly = normalize(parse_ode("y'' - 2*y^3"), {})
    fam = next(f for f in find_balances(poly) if f.consistent)
    return poly, fam


def test_repr_is_unchanged(w3):
    poly, fam = w3
    assert repr(parse_ode("y'' - 2*y^3 + 1.5*y'")) == AST_REPR
    assert repr(DiffMonomial.from_map(QComplex(3, -1), {0: 2, 1: 1})) == MONOMIAL_REPR
    assert repr(fam) == FAMILY_REPR
    assert repr(solve_local_series(poly, fam, fam.leading_coeffs[0], K=4)) == LOCAL_REPR
    traj = ComplexTrajectory(samples=[TrajectoryPoint(0j, 1 + 0j, -0.5j)],
                             singular_near_zero=False,
                             halt_reason="step size underflow",
                             halt_kind="underflow", stats={"accepted": 1})
    assert repr(traj) == TRAJECTORY_REPR


def test_equality_is_strict_about_type():
    assert Const(2) == Const(2)
    assert Const(2) != Const(3)
    assert Const(2) != Y(2)
    assert Param("y") != Const("y")
    assert Y(2) != (2,)
    assert (2,) != Y(2)
    assert Add((Y(0),)) != Mul((Y(0),))
    assert Pow(Y(0), 3) == Pow(Y(0), 3)
    assert Pow(Y(0), 3) != Pow(Y(0), 2)


def test_equal_records_hash_equal(w3):
    poly, fam = w3
    assert hash(Pow(Y(1), 2)) == hash(Pow(Y(1), 2))
    assert len({Y(1), Y(1), Y(2)}) == 2
    again = normalize(parse_ode("y'' - 2*y^3"), {})
    assert again == poly and hash(again) == hash(poly)
    refound = next(f for f in find_balances(again) if f.consistent)
    assert refound == fam and hash(refound) == hash(fam)
    # as with the dataclass, the hash is that of the field tuple
    assert hash(Pow(Y(1), 2)) == hash((Y(1), 2))


def test_frozen_fields_refuse_assignment(w3):
    _, fam = w3
    for record, name in ((Y(1), "order"), (fam, "p"), (fam, "extra"),
                         (SingularityProbe(1j, "none"), "kind"),
                         (ComplexTrajectory([], False), "halt_kind"),
                         (ComplexTrajectory([], False), "points"),
                         (ClosedFormCandidate("rational", {1: 1}, 0),
                          "verified")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fam.p == -1


def test_trajectory_and_candidate_default_their_fields():
    traj = ComplexTrajectory([], False)
    assert traj.stats == {} and traj.halt_kind is None and not traj.halted
    assert traj.replace(halt_kind="budget").halted
    cand = ClosedFormCandidate("rational", {1: 1}, 0)
    assert cand.tail == {} and cand.verified is None
    assert cand.replace(verified=True).verified and cand.verified is None
    # defaults are not shared between instances
    assert ComplexTrajectory([], False).stats is not traj.stats
    assert ClosedFormCandidate("rational", {}, 0).tail is not cand.tail


def test_trajectory_points_are_built_from_the_samples():
    # a float sample reads back as complex points, and the rows follow it
    traj = ComplexTrajectory([(1j, 2.0, -0.0)], False)
    point = TrajectoryPoint(1j, 2 + 0j, complex(-0.0, 0.0))
    assert traj.points == [point] and traj.end == point
    assert repr(traj.end) == repr(point)
    assert all(type(x) is complex for x in traj.end)
    assert repr(traj.to_rows()) == repr([(0.0, 1.0, 2.0, 0.0, -0.0, 0.0)])


def test_differential_polynomial_still_validates():
    with pytest.raises(ValueError, match="must have monomials"):
        DifferentialPolynomial(())
    mono = DiffMonomial.from_map(1, {0: 3})
    twin = DiffMonomial.from_map(2, {0: 3})
    with pytest.raises(ValueError, match="duplicate monomial signatures"):
        DifferentialPolynomial((mono, twin))
    poly = DifferentialPolynomial((mono,))
    assert poly.clearing_multiplier == 0
    with pytest.raises(ValueError, match="duplicate monomial signatures"):
        poly.replace(monomials=(mono, twin))


def test_replace_builds_a_changed_copy(w3):
    _, fam = w3
    moved = fam.replace(q=fam.q + 1)
    assert moved.q == Fraction(-2) and fam.q == Fraction(-3)
    assert moved.replace(q=fam.q) == fam
    with pytest.raises(TypeError):
        fam.replace(r=1)


def test_records_copy_and_pickle(w3):
    poly, fam = w3
    for record in (fam, poly, parse_ode("y'' - c*y^3")):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def _record_classes():
    # importing each layer registers its records
    from merosolve import exactlab, numeric, report, series  # noqa: F401
    from merosolve.records import Record

    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found[1:]


def test_only_checking_or_defaulting_records_write_an_init():
    classes = _record_classes()
    assert {"BalanceFamily", "ClaimedPole", "QuadFormParams"} <= \
        {cls.__name__ for cls in classes}
    own_init = sorted(cls.__name__ for cls in classes if "__init__" in vars(cls))
    assert own_init == ["ClosedFormCandidate", "ComplexTrajectory",
                        "DifferentialPolynomial", "SingularityProbe"]


def test_the_base_builds_a_record_from_its_slots():
    assert Pow(Y(0), 3) == Pow(Y(0), exponent=3) == Pow(exponent=3, base=Y(0))
    probe = SingularityProbe(1j, "none")
    assert probe.fit_residual is None
    assert SingularityProbe(t_star=1j, kind="none", fit_residual=0.5) == \
        probe.replace(fit_residual=0.5)
    assert DifferentialPolynomial(monomials=(DiffMonomial(1, ((0, 3),)),)) \
        .clearing_multiplier == 0


@pytest.mark.parametrize("args, kwargs, message", [
    ((Y(0),), {}, "Pow() is missing field 'exponent'"),
    ((Y(0), 3), {"base": Y(1)}, "Pow() got field 'base' twice"),
    ((Y(0), 3, 4), {}, "Pow() takes 2 fields, got 3"),
    ((Y(0),), {"power": 3}, "Pow() has no field 'power'"),
], ids=["missing", "repeated", "extra", "unknown"])
def test_the_base_names_a_bad_field(args, kwargs, message):
    with pytest.raises(TypeError) as err:
        Pow(*args, **kwargs)
    assert str(err.value) == message
