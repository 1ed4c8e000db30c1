"""The twelve value types of fan, chambers, novikov and wallcross, pinned.

For each type: its repr byte for byte (reprs appear in "got {x!r}" error
messages), == and hash over its fields and only against an instance of
the same class, frozenness, positional and keyword construction with its
defaults, the constructor checks with their messages, and copy, deepcopy
and pickle round trips.  A library function handed something of the wrong
type where it takes one of them (or a mapping, an iterable or an int)
raises BadParams, never a raw error.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from opengw import chambers, fan, novikov, series, wallcross
from opengw.errors import BadParams, DimensionMismatch, DomainError, IndexOutOfRange

F = Fraction
CP2 = fan.builtin_fan("cpn", n=2)
EV = fan.EnergyValues(F(1, 2), (F(1, 3),), (F(2),))
BETA_HAT = fan.RelClass(1, (0,), (0,))
POINT = (novikov.ONE, novikov.ONE)


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


def test_table_rows_compare_equal_and_stay_frozen():
    # InvariantRow, built per row whenever a table's rows are read, sets
    # its fields through the slots' own setters and keeps _Value's == and
    # hash: rows read twice are new objects that compare and hash equal
    assert wallcross.InvariantRow.__eq__ is fan._Value.__eq__
    assert wallcross.InvariantRow.__hash__ is fan._Value.__hash__
    w = wallcross.chekanov_superpotential(fan.builtin_fan("cpn", n=3), wallcross.Ambient.COMPACT)
    table = wallcross.invariant_table(w)
    rows, again = table.rows, table.rows
    assert rows == again and hash(rows) == hash(again)
    assert all(a is not b for a, b in zip(rows, again))
    for row in rows:
        assert row == wallcross.InvariantRow(row.cls, row.maslov, row.value, row.name)
        for attr in ("cls", "maslov", "value", "name"):
            with pytest.raises(AttributeError):
                setattr(row, attr, None)
            with pytest.raises(AttributeError):
                delattr(row, attr)
    assert wallcross.InvariantTable(rows).rows == rows


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


@pytest.mark.parametrize("call", [
    lambda: chambers.classify_point(2, "x"),
    lambda: chambers.monodromy_matrix("x", 0, 1),
    lambda: chambers.monodromy_matrix(chambers.cn_rays(3), "0", 1),
    lambda: chambers.monodromy_matrix(chambers.cn_rays(3), 0, 1.0),
    lambda: chambers.wall_component_tropical("x", [1]),
    lambda: chambers.cn_rays("3"),
    lambda: chambers.cn_rays(2.0),
    lambda: fan.validate_fan("x"),
    lambda: fan.ray_decomposition("x", 1),
    lambda: fan.ray_decomposition(CP2, "1"),
    lambda: wallcross.clifford_superpotential("x", wallcross.Ambient.OPEN),
    lambda: wallcross.chekanov_superpotential("x", wallcross.Ambient.COMPACT),
    lambda: wallcross.wall_crossing_factor("x"),
    lambda: wallcross.verify_wall_cross_identity("x"),
    lambda: wallcross.closed_form_invariant("cpn", 5),
    lambda: series.from_records(2, 1, 5),
    lambda: series.ClassSeries(2, 1, [1]),
    lambda: fan.zero_class("x"),
    lambda: fan.beta_hat_class("x"),
    lambda: fan.gamma_class("x", 1),
    lambda: fan.gamma_class(CP2, "1"),
    lambda: fan.sphere_class("x", 1),
    lambda: fan.sphere_class(CP2, "1"),
    lambda: fan.beta_class("x", 1),
    lambda: fan.beta_class(CP2, "1"),
    lambda: fan.class_boundary("x", BETA_HAT),
    lambda: fan.class_boundary(CP2, "x"),
    lambda: fan.class_maslov("x", BETA_HAT),
    lambda: fan.class_maslov(CP2, "x"),
    lambda: series.to_records("x"),
    lambda: novikov.evaluate(_series(), novikov.EnergyAssignment("x", 1, (), None), POINT),
    lambda: novikov.evaluate(_series(), novikov.EnergyAssignment(CP2, 0.5, (0.25,), None), POINT),
    lambda: novikov.EnergyAssignment(CP2, 1, (1,), "ab"),
    lambda: wallcross.wall_cross_rhs(fan.FanSpec(2, ()), 4, 5),
    lambda: wallcross.verify_wall_cross_identity(fan.FanSpec(2, ()), 4,
                                                 iter([series.one(2, 0)] * 2)),
    lambda: wallcross.InvariantTable([5]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(5, 2, F(1), "x")]),
    lambda: wallcross.InvariantTable(5),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(BETA_HAT, 2, 1.0, "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(fan.RelClass(1, 5, (0,)), 2, F(1), "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(fan.RelClass(1, (0,), [0]), 2, F(1), "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(fan.RelClass(1.0, (0,), (0,)), 2, F(1), "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(fan.RelClass(1, (0.5,), (0,)), 2, F(1), "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(BETA_HAT, 2.0, F(1), "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(BETA_HAT, 2, "1", "x")]),
    lambda: wallcross.InvariantTable([wallcross.InvariantRow(BETA_HAT, 2, F(1), 5)]),
    lambda: fan.class_name(5),
    lambda: series.ClassSeries(2, 0, {fan.RelClass("a", (0,), ()): 1}),
    lambda: series.ClassSeries(2, 0, {fan.RelClass(1, (2.0,), ()): 1}),
    lambda: series.ClassSeries(2, 0, {fan.RelClass(1, (0.5,), ()): 1}),
    lambda: series.ClassSeries(2, 0, {fan.RelClass(1, (True,), ()): 1}),
    lambda: series.ClassSeries(2, 0, {fan.RelClass(1, 5, ()): 1}),
], ids=["classify-point", "monodromy-rays", "monodromy-i", "monodromy-j", "tropical-rays",
        "cn-rays-str", "cn-rays-float", "validate-fan", "ray-decomposition-spec",
        "ray-decomposition-index", "clifford", "chekanov", "wall-crossing-factor",
        "wall-cross-identity", "closed-form-params", "from-records", "series-terms",
        "zero-class", "beta-hat-class", "gamma-class-spec", "gamma-class-index",
        "sphere-class-spec", "sphere-class-index", "beta-class-spec", "beta-class-index",
        "class-boundary-spec", "class-boundary-class", "class-maslov-spec",
        "class-maslov-class", "to-records", "energy-assignment-fan",
        "energy-assignment-area", "energy-assignment-h", "wall-cross-rhs-corrections",
        "wall-cross-identity-corrections", "invariant-table-row", "invariant-table-row-class",
        "invariant-table-rows", "invariant-table-float-value", "invariant-table-int-g",
        "invariant-table-list-h", "invariant-table-float-b", "invariant-table-half-g",
        "invariant-table-float-maslov", "invariant-table-str-value", "invariant-table-int-name",
        "class-name", "series-key-str-b", "series-key-float-g",
        "series-key-half-g", "series-key-bool-g", "series-key-int-g"])
def test_wrong_typed_arguments_are_bad_params(call):
    # each used to end in a raw AttributeError or TypeError
    with pytest.raises(BadParams, match="must be"):
        call()


# two disjoint cycles of cones, each once round the origin: every facet
# lies in two cones on opposite sides, yet no cone meets the other cycle
TWO_CYCLES = fan.FanSpec(2, [(1, 1), (1, 0), (0, 1), (-1, -1)],
                         [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
ZERO_RAY = fan.FanSpec(2, [(0, 0)], [(0, 1), (1, 2), (2, 0)])
# three cones about the rays -e_2, (1, 1) and (1, 0): two of their facets
# have both cones on one side
SAME_SIDE = fan.FanSpec(2, ((1, 1), (1, 0)), max_cones=((1, 2), (1, 3), (2, 3)))


@pytest.mark.parametrize("call, want", [
    (lambda: series.ClassSeries(2, 1, {fan.RelClass(1, (0, 0), (0,)): 1}),
     (DimensionMismatch, "class RelClass(b=1, g=(0, 0), h=(0,)) does not fit shape (2, 1)")),
    (lambda: _series() * 0.5,
     (BadParams, "scale factor must be an integer, a Fraction or a 'p/q' string, got 0.5")),
    (lambda: 0.5 * _series(),
     (BadParams, "scale factor must be an integer, a Fraction or a 'p/q' string, got 0.5")),
    (lambda: BETA_HAT + fan.RelClass(1, (0, 0), ()),
     (DimensionMismatch, "cannot add classes of different shapes")),
    (lambda: CP2.ray(3), (IndexOutOfRange, "ray index 3 not in 0..2")),
    (lambda: fan.gamma_class(CP2, 2), (IndexOutOfRange, "gamma index 2 not in 1..1")),
    (lambda: fan.sphere_class(CP2, 2), (IndexOutOfRange, "sphere index 2 not in 1..1")),
    (lambda: fan.beta_class(CP2, 3), (IndexOutOfRange, "disk index 3 not in 1..2")),
    (lambda: fan.ray_decomposition(CP2, 0), (IndexOutOfRange, "extra ray index 0 not in 1..1")),
    (lambda: fan.validate_fan(ZERO_RAY).diagnostics[0], "extra ray 1 is zero"),
    (lambda: fan.validate_fan(SAME_SIDE).diagnostics,
     ("facet (1,): cones 0 and 1 are not on strictly opposite sides",
      "facet (2,): cones 0 and 2 are not on strictly opposite sides",
      "Fano criterion not evaluated: fan is not smooth and complete")),
    (lambda: fan.validate_fan(TWO_CYCLES).diagnostics,
     ("cone adjacency graph is disconnected",
      "Fano criterion not evaluated: fan is not smooth and complete")),
    (lambda: novikov.t_monomial(1).coeff(2), 0),
    (lambda: novikov.t_monomial(1).coeff(F(1, 3)), 0),
    (lambda: novikov.laurent_mul(novikov.NovikovLaurent(1, {}), novikov.NovikovLaurent(2, {})),
     (DimensionMismatch, "cannot multiply Laurent series in different dimensions")),
    (lambda: novikov.gauss_valuation(novikov.NovikovLaurent(2, {(1, 0): novikov.ONE}), [(0,)]),
     (DimensionMismatch, "vertex and exponent dimensions differ")),
    (lambda: novikov.toric_superpotential([(1, 0)], [0, 0], [1, 1]),
     (DimensionMismatch, "need one constant per facet normal")),
    (lambda: novikov.toric_superpotential([(1, 0)], [0], [1]),
     (DimensionMismatch, "facet normals and base point dimensions differ")),
    (lambda: novikov.toric_superpotential([(1, 0)], [0], [1, 1], [novikov.ONE] * 2),
     (DimensionMismatch, "need one correction per facet")),
    (lambda: novikov.assign_energies(CP2),
     (BadParams, "no energy values given and the fan spec carries none")),
    (lambda: novikov.assign_energies(CP2, {"beta_hat": 1, "gamma": [1], "H": [5, 6]}),
     (DimensionMismatch, "need 1 sphere energies, got 2")),
    (lambda: novikov.EnergyAssignment(CP2, 1, (), None),
     (DimensionMismatch, "need 1 gamma energies, got 0")),
    (lambda: novikov.EnergyAssignment(CP2, 1, (1,), (1, 2)),
     (DimensionMismatch, "need 1 sphere energies, got 2")),
    (lambda: wallcross.apply_gluing(CP2, _series(), wallcross.GluingData(
        series.one(3, 0), wallcross.Direction.PLUS_TO_MINUS, 4)),
     (DimensionMismatch, "gluing factor does not match the fan")),
    (lambda: wallcross.closed_form_invariant(
        "cp_product", {"n": 3, "r": 1, "branch": "H3", "k": [0, 0]}),
     (BadParams, "branch must be 'H1' or 'H2', got 'H3'")),
    (lambda: wallcross.closed_form_invariant("f1", {"k": 0}),
     (BadParams, "branch must be 'H1' or 'H2', got None")),
    (lambda: wallcross.closed_form_invariant("cp_product", {"n": 3, "r": 1, "beta_hat": True}),
     F(1)),
    (lambda: fan.builtin_fan("hirzebruch_f1", n=2),
     (BadParams, "hirzebruch_f1 takes no parameters, got {'n': 2}")),
    (lambda: fan.builtin_fan("f2_nonfano", k=1),
     (BadParams, "f2_nonfano takes no parameters, got {'k': 1}")),
    (lambda: fan.det_int([[F(1, 2), 1], [1, 1]]),
     (BadParams, "matrix row entry must be an integer, got Fraction(1, 2)")),
    (lambda: fan.det_int([[0.5, 1], [1, 1]]),
     (BadParams, "matrix row entry must be an integer, got 0.5")),
    (lambda: fan.det_int([[1, 2, 3], [4, 5, 6]]),
     (BadParams, "matrix row must have length 2, got [1, 2, 3]")),
    (lambda: fan.det_int([[1, 2], [3]]), (BadParams, "matrix row must have length 2, got [3]")),
], ids=["series-class-shape", "series-mul", "series-rmul", "class-add-shape", "fan-ray",
        "gamma-index", "sphere-index", "beta-index", "ray-decomposition-index", "zero-ray",
        "same-side-cones", "disconnected-cones", "coeff-absent", "coeff-off-grid", "laurent-mul-dims",
        "gauss-valuation-dims", "toric-constants", "toric-dims", "toric-corrections",
        "energies-missing", "energies-sphere-count", "energy-assignment-gamma",
        "energy-assignment-h", "gluing-factor-shape", "closed-form-product-branch",
        "closed-form-f1-branch", "closed-form-product-beta-hat", "f1-params", "f2-params",
        "det-int-fraction", "det-int-float", "det-int-not-square", "det-int-ragged"])
def test_seldom_reached_checks(call, want):
    # each check here is one that no workflow test reaches: its exact error
    # type and message, or the value of the branch
    try:
        got = call()
    except DomainError as exc:
        got = type(exc), str(exc)
    assert got == want
