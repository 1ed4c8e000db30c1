"""The twelve value types of fan, chambers, novikov and wallcross, pinned.

For each type: its repr byte for byte (reprs appear in "got {x!r}" error
messages), == and hash over its fields and only against an instance of
the same class, frozenness, positional and keyword construction with its
defaults, the constructor checks with their messages, and copy, deepcopy
and pickle round trips.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from opengw import chambers, fan, novikov, series, wallcross
from opengw.errors import BadParams, DimensionMismatch, IndexOutOfRange

F = Fraction
CP2 = fan.builtin_fan("cpn", n=2)
EV = fan.EnergyValues(F(1, 2), (F(1, 3),), (F(2),))
BETA_HAT = fan.RelClass(1, (0,), (0,))


def _series():
    return series.ClassSeries(2, 1, {BETA_HAT: F(1), fan.RelClass(1, (1,), (0,)): F(-2)})


# name -> (type, field names, constructor arguments in field order)
CASES = {
    "RelClass": (fan.RelClass, ("b", "g", "h"), lambda: (1, (2, -1), (0, 1))),
    "EnergyValues": (fan.EnergyValues, ("beta_hat", "gamma", "h"),
                     lambda: (F(1, 2), (F(1, 3),), (F(2),))),
    "FanSpec": (fan.FanSpec, ("n", "extra_rays", "max_cones", "energies"),
                lambda: (2, [[1, 1]], [[0, 1], (0, 2), (1, 2)], EV)),
    "ValidationReport": (fan.ValidationReport,
                         ("primitive_ok", "smooth_ok", "complete_ok", "fano_ok", "diagnostics"),
                         lambda: (True, False, True, True, ("cone 0 is not smooth",))),
    "Chamber": (chambers.Chamber, ("kind", "index"), lambda: ("wall", 2)),
    "ChamberPoint": (chambers.ChamberPoint, ("lam", "q2"), lambda: ([F(1, 2), "1/3"], 0)),
    "CYFanRays": (chambers.CYFanRays, ("rays", "constants", "m0"),
                  lambda: ([(0, 1), [1, 1]], (1, "1/2"), (0, 1))),
    "NovikovLaurent": (novikov.NovikovLaurent, ("n", "terms"),
                       lambda: (2, {(1, 0): novikov.t_monomial(F(1, 2)),
                                    (0, 1): novikov.constant(-3),
                                    (1, 1): novikov.ZERO})),
    "EnergyAssignment": (novikov.EnergyAssignment, ("fan", "beta_hat", "gamma", "h"),
                         lambda: (CP2, F(1, 2), (F(1, 3),), (F(2),))),
    "Superpotential": (wallcross.Superpotential, ("fan", "series", "chamber", "ambient"),
                       lambda: (CP2, _series(), wallcross.Chart.CLIFFORD,
                                wallcross.Ambient.OPEN)),
    "GluingData": (wallcross.GluingData, ("factor", "direction", "trunc"),
                   lambda: (_series(), wallcross.Direction.MINUS_TO_PLUS, 4)),
    "InvariantRow": (wallcross.InvariantRow, ("cls", "maslov", "value", "name"),
                     lambda: (BETA_HAT, 2, F(1), "β̂")),
}
UNHASHABLE = {"NovikovLaurent"}
FROZEN = sorted(set(CASES) - UNHASHABLE)

REPRS = {
    "RelClass": "RelClass(b=1, g=(2, -1), h=(0, 1))",
    "EnergyValues": "EnergyValues(beta_hat=Fraction(1, 2), gamma=(Fraction(1, 3),), "
                    "h=(Fraction(2, 1),))",
    "FanSpec": "FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 1), (0, 2), (1, 2)), "
               "energies=EnergyValues(beta_hat=Fraction(1, 2), gamma=(Fraction(1, 3),), "
               "h=(Fraction(2, 1),)))",
    "ValidationReport": "ValidationReport(primitive_ok=True, smooth_ok=False, complete_ok=True, "
                        "fano_ok=True, diagnostics=('cone 0 is not smooth',))",
    "Chamber": "Chamber(kind='wall', index=2)",
    "ChamberPoint": "ChamberPoint(lam=(Fraction(1, 2), Fraction(1, 3)), q2=Fraction(0, 1))",
    "CYFanRays": "CYFanRays(rays=((0, 1), (1, 1)), constants=(Fraction(1, 1), Fraction(1, 2)), "
                 "m0=(0, 1))",
    "NovikovLaurent": "NovikovLaurent(n=2, terms={(1, 0): NovikovScalar(terms=((Fraction(1, 2), "
                      "Fraction(1, 1)),), cutoff=None), (0, 1): NovikovScalar(terms=((Fraction(0, "
                      "1), Fraction(-3, 1)),), cutoff=None)})",
    "EnergyAssignment": "EnergyAssignment(fan=FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, "
                        "1), (0, 2), (1, 2)), energies=None), beta_hat=Fraction(1, 2), "
                        "gamma=(Fraction(1, 3),), h=(Fraction(2, 1),))",
    "Superpotential": "Superpotential(fan=FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 1), "
                      "(0, 2), (1, 2)), energies=None), series=<ClassSeries (2,1) "
                      "1*[RelClass(b=1, g=(0,), h=(0,))] + -2*[RelClass(b=1, g=(1,), h=(0,))]>, "
                      "chamber=<Chart.CLIFFORD: 'clifford'>, ambient=<Ambient.OPEN: 'open'>)",
    "GluingData": "GluingData(factor=<ClassSeries (2,1) 1*[RelClass(b=1, g=(0,), h=(0,))] + "
                  "-2*[RelClass(b=1, g=(1,), h=(0,))]>, "
                  "direction=<Direction.MINUS_TO_PLUS: 'minus_to_plus'>, trunc=4)",
    "InvariantRow": "InvariantRow(cls=RelClass(b=1, g=(0,), h=(0,)), maslov=2, "
                    "value=Fraction(1, 1), name='β̂')",
}


def _make(name):
    cls, _, args = CASES[name]
    return cls(*args())


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_unchanged(name):
    assert repr(_make(name)) == REPRS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_keyword_construction(name):
    cls, fields, args = CASES[name]
    by_keyword = cls(**dict(zip(fields, args())))
    assert by_keyword == _make(name)
    assert repr(by_keyword) == REPRS[name]


def test_defaults():
    assert fan.EnergyValues(F(1), ()).h is None
    spec = fan.FanSpec(1, ())
    assert (spec.max_cones, spec.energies) == (None, None)
    assert fan.ValidationReport(True, True, True, True).diagnostics == ()
    assert chambers.Chamber("b_plus").index is None
    rays = chambers.CYFanRays([(0, 1), (1, 1)])
    assert (rays.constants, rays.m0) == ((F(0), F(0)), (0, 1))


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_and_hash_over_fields(name):
    a, b = _make(name), _make(name)
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("a, b", [
    (fan.RelClass(1, (0,), (0,)), fan.RelClass(1, (0,), (1,))),
    (fan.RelClass(0, (), ()), fan.RelClass(-0, (), (0,))),
    (fan.FanSpec(2, ((1, 1),)), fan.FanSpec(2, ((1, 1),), energies=EV)),
    (chambers.Chamber("wall", 1), chambers.Chamber("wall", 2)),
    (chambers.Chamber("b_plus"), chambers.Chamber("b_minus")),
    (wallcross.InvariantRow(BETA_HAT, 2, F(1), "β̂"), wallcross.InvariantRow(BETA_HAT, 2, F(2), "β̂")),
    (novikov.NovikovLaurent(1, {(1,): novikov.ONE}), novikov.NovikovLaurent(2, {})),
])
def test_a_field_differs(a, b):
    assert a != b and not a == b


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_only_to_the_same_class(name):
    cls, fields, _ = CASES[name]
    x = _make(name)
    values = tuple(getattr(x, f) for f in fields)
    assert x != values and values != x
    assert x.__eq__(values) is NotImplemented
    sub = type("Sub", (cls,), {})(*values)
    assert x != sub and sub != x


@pytest.mark.parametrize("name", FROZEN)
def test_frozen(name):
    _, fields, _ = CASES[name]
    x = _make(name)
    before = repr(x)
    for attr in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 0)
        with pytest.raises(AttributeError):
            delattr(x, attr)
    assert repr(x) == before


def test_novikov_laurent_fields_can_be_reassigned():
    f = _make("NovikovLaurent")
    f.terms = {}
    assert f == novikov.NovikovLaurent(2, {})


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_and_pickle_round_trips(name):
    x = _make(name)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x and repr(y) == repr(x)


@pytest.mark.parametrize("make, error, message", [
    (lambda: fan.FanSpec(0, ()), BadParams, "dimension must be >= 1, got 0"),
    (lambda: fan.FanSpec(True, ()), BadParams, "dimension must be an integer, got True"),
    (lambda: fan.FanSpec(2, "ab"), BadParams, "extra rays must be a sequence, got 'ab'"),
    (lambda: fan.FanSpec(2, ((1,),)), DimensionMismatch, "extra ray (1,) does not have length 2"),
    (lambda: fan.FanSpec(2, ((1, 1.0),)), BadParams,
     "extra ray entry must be an integer, got 1.0"),
    (lambda: fan.FanSpec(2, ((1, 1),), ((0, 3),)), IndexOutOfRange,
     "cone (0, 3): ray index 3 not in 0..2"),
    (lambda: chambers.ChamberPoint("12", 0), BadParams, "lambda must be a sequence, got '12'"),
    (lambda: chambers.ChamberPoint((0.5,), 0), BadParams,
     "lambda entry must be an integer, a Fraction or a 'p/q' string, got 0.5"),
    (lambda: chambers.ChamberPoint((), 0.5), BadParams,
     "q2 must be an integer, a Fraction or a 'p/q' string, got 0.5"),
    (lambda: chambers.CYFanRays("ab"), BadParams, "rays must be a sequence, got 'ab'"),
    (lambda: chambers.CYFanRays(()), BadParams, "need at least one ray"),
    (lambda: chambers.CYFanRays(((0, 1), (1, 1, 1))), DimensionMismatch,
     "rays must all have the same length"),
    (lambda: chambers.CYFanRays(((0, 1),), m0=(1,)), DimensionMismatch,
     "m0 must have the same length as the rays"),
    (lambda: chambers.CYFanRays(((1, 0),)), BadParams,
     "ray 0 = (1, 0) does not pair to 1 against m0 = (0, 1)"),
    (lambda: chambers.CYFanRays(((0, 1),), (1, 2)), DimensionMismatch,
     "need one constant per ray"),
    (lambda: chambers.CYFanRays(((0, 1),), (0.5,)), BadParams,
     "constants entry must be an integer, a Fraction or a 'p/q' string, got 0.5"),
    (lambda: novikov.NovikovLaurent(2, {(1,): novikov.ONE}), DimensionMismatch,
     "exponent (1,) does not have length 2"),
    (lambda: novikov.NovikovLaurent(1, {(1.0,): novikov.ONE}), BadParams,
     "exponent entry must be an integer, got 1.0"),
    (lambda: novikov.NovikovLaurent(1, {(1,): 1}), BadParams,
     "coefficient of (1,) must be a NovikovScalar, got 1"),
])
def test_constructor_checks(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_constructors_normalize():
    spec = fan.FanSpec(2, [[1, 1]], [[0, 1]])
    assert (spec.extra_rays, spec.max_cones) == (((1, 1),), ((0, 1),))
    point = chambers.ChamberPoint(["1/2"], 0)
    assert (point.lam, point.q2) == ((F(1, 2),), F(0))
    assert type(point.q2) is Fraction
    assert novikov.NovikovLaurent(1, {(1,): novikov.ZERO}).terms == {}
