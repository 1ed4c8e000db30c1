"""Novikov scalars, Gauss valuations, toric potentials, numeric evaluation."""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opengw import cli, errors, fan, novikov, series, wallcross
from opengw.fan import RelClass
from opengw.novikov import NovikovScalar, constant, t_monomial

F = Fraction


class TestScalar:
    def test_valuation(self):
        x = NovikovScalar.from_terms([(F(2), F(3)), (F(1, 2), F(2))])
        assert x.val == F(1, 2)
        assert novikov.ZERO.val == math.inf

    def test_merge_and_zero_drop(self):
        x = NovikovScalar.from_terms([(F(1), F(2)), (F(1), F(-2)), (F(0), F(1))])
        assert x.terms == ((F(0), F(1)),)

    def test_constructor_sorts_merges_and_drops_zeros(self):
        x = NovikovScalar(((1, 1), (0, 1)))
        assert x.val == 0
        assert x == NovikovScalar.from_terms(((1, 1), (0, 1)))
        assert hash(x) == hash(NovikovScalar.from_terms(((1, 1), (0, 1))))
        assert NovikovScalar(((0, 0),)).is_zero()
        assert NovikovScalar(((0, 0),)) == novikov.ZERO
        y = NovikovScalar(((F(1, 2), 1), (0, 3), ("2/4", -1), (F(1, 2), 2), (5, 0)))
        assert y.terms == ((F(0), F(3)), (F(1, 2), F(2)))
        assert y.columns() == (2, (0, 1), 1, (3, 2))

    def test_constructor_keeps_terms_at_the_cutoff(self):
        pairs = ((3, 1), (0, 1), (3, 1))
        x = NovikovScalar(pairs, cutoff=2)
        assert x.terms == ((F(0), F(1)), (F(3), F(2)))
        assert x.cutoff == 2
        assert NovikovScalar.from_terms(pairs, cutoff=2).terms == ((F(0), F(1)),)

    def test_cutoff_drops_terms(self):
        x = NovikovScalar.from_terms([(F(0), 1), (F(3), 1), (F(5), 1)], cutoff=F(3))
        assert x.terms == ((F(0), F(1)),)
        assert x.cutoff == 3

    def test_addition_keeps_min_cutoff(self):
        x = NovikovScalar.from_terms([(F(0), 1)], cutoff=F(2))
        y = NovikovScalar.from_terms([(F(1), 1)], cutoff=F(5))
        assert (x + y).cutoff == 2

    def test_inverse_of_one_plus_t(self):
        x = NovikovScalar.from_terms([(F(0), 1), (F(1), 1)], cutoff=F(3))
        inv = novikov.scalar_inverse(x)
        assert inv.terms == ((F(0), F(1)), (F(1), F(-1)), (F(2), F(1)))
        assert inv.cutoff == 3

    def test_inverse_is_involutive_up_to_cutoff(self):
        x = NovikovScalar.from_terms([(F(1, 2), 2), (F(1), 1), (F(2), -3)], cutoff=F(4))
        back = novikov.scalar_inverse(novikov.scalar_inverse(x))
        assert back.cutoff == x.cutoff
        assert back.terms == x.terms

    def test_inverse_of_monomial_is_exact(self):
        inv = novikov.scalar_inverse(t_monomial(F(3, 2), F(2, 5)))
        assert inv == t_monomial(F(-3, 2), F(5, 2))
        assert inv.cutoff is None

    def test_inverse_needs_cutoff_for_exact_multiterm(self):
        x = NovikovScalar.from_terms([(F(0), 1), (F(1), 1)])
        with pytest.raises(ValueError):
            novikov.scalar_inverse(x)
        got = novikov.scalar_inverse(x, cutoff=F(2))
        assert got.terms == ((F(0), F(1)), (F(1), F(-1)))

    def test_inverse_of_zero(self):
        with pytest.raises(errors.DivisionByZero):
            novikov.scalar_inverse(novikov.ZERO)

    def test_formatting(self):
        x = NovikovScalar.from_terms([(F(0), F(3, 2)), (F(1, 2), -1)], cutoff=F(2))
        assert str(x) == "3/2 - T^1/2 + O(T^2)"


scalars = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    max_size=4,
).map(NovikovScalar.from_terms)


@given(scalars, scalars)
def test_ultrametric_inequality(x, y):
    assert (x + y).val >= min(x.val, y.val)
    prod = x * y
    if x.is_zero() or y.is_zero():
        assert prod.val == math.inf
    else:
        assert prod.val == x.val + y.val


@given(scalars, scalars, scalars)
def test_scalar_ring_laws(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


cut_scalars = st.builds(
    lambda pairs, cut: NovikovScalar.from_terms(pairs, cut),
    scalars.map(lambda x: x.terms),
    st.none() | st.fractions(min_value=-2, max_value=4, max_denominator=4),
)


@given(cut_scalars, cut_scalars)
def test_product_follows_the_cutoff_rule(x, y):
    # the rule, stated here on its own: each cutoff shifts by the other
    # factor's floor min(val, cutoff); the product keeps the smaller one
    def floor(z):
        low = [e for e, _ in z.terms[:1]] + ([z.cutoff] if z.cutoff is not None else [])
        return min(low, default=None)

    cuts = [c + floor(z) for c, z in ((x.cutoff, y), (y.cutoff, x))
            if c is not None and floor(z) is not None]
    cut = min(cuts, default=None)
    sums = {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            sums[e1 + e2] = sums.get(e1 + e2, 0) + c1 * c2
    want = tuple(sorted((e, c) for e, c in sums.items() if c and (cut is None or e < cut)))
    assert ((x * y).terms, (x * y).cutoff) == (want, cut)


class TestTrop:
    def test_coordinatewise_valuation(self):
        pt = [t_monomial(F(1, 2)), constant(2)]
        assert novikov.trop(pt) == (F(1, 2), F(0))

    def test_zero_coordinate(self):
        with pytest.raises(errors.ZeroCoordinate):
            novikov.trop([novikov.ONE, novikov.ZERO])

    @pytest.mark.parametrize("point", [None, 5, "T,T"])
    def test_point_must_be_a_sequence(self, point):
        # None and 5 used to end in a raw TypeError
        with pytest.raises(errors.BadParams, match="point must be a sequence"):
            novikov.trop(point)


class TestGauss:
    def test_line_segment_example(self):
        f = novikov.NovikovLaurent(
            1, {(1,): t_monomial(F(1, 2)), (-1,): novikov.ONE}
        )
        assert novikov.gauss_valuation(f, [(F(0),), (F(1),)]) == -1

    def test_single_point_is_multiplicative(self):
        f = novikov.NovikovLaurent(1, {(1,): t_monomial(F(1, 2)), (0,): constant(3)})
        g = novikov.NovikovLaurent(1, {(2,): novikov.ONE, (-1,): t_monomial(1)})
        u = [(F(1, 3),)]
        assert novikov.gauss_valuation(novikov.laurent_mul(f, g), u) == novikov.gauss_valuation(
            f, u
        ) + novikov.gauss_valuation(g, u)

    def test_empty_polytope(self):
        f = novikov.NovikovLaurent(1, {(1,): novikov.ONE})
        with pytest.raises(errors.EmptyPolytope):
            novikov.gauss_valuation(f, [])


@given(st.data())
@settings(max_examples=80)
def test_gauss_valuation_properties(data):
    n = data.draw(st.integers(min_value=1, max_value=2), label="n")
    exps = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    nonzero = scalars.filter(lambda s: not s.is_zero())
    laurents = st.dictionaries(exps, nonzero, min_size=1, max_size=3).map(
        lambda d: novikov.NovikovLaurent(n, d)
    )
    f = data.draw(laurents, label="f")
    g = data.draw(laurents, label="g")
    vertex = data.draw(
        st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=3)] * n),
        label="vertex",
    )
    extra = data.draw(
        st.lists(
            st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=3)] * n),
            max_size=2,
        ),
        label="extra",
    )
    vf, vg = novikov.gauss_valuation(f, [vertex]), novikov.gauss_valuation(g, [vertex])
    prod = novikov.laurent_mul(f, g)
    # multiplicative over a single vertex, submultiplicative in general
    assert novikov.gauss_valuation(prod, [vertex]) == vf + vg
    poly = [vertex] + extra
    got = novikov.gauss_valuation(prod, poly)
    assert got >= novikov.gauss_valuation(f, poly) + novikov.gauss_valuation(g, poly)


class TestToric:
    def test_cp2_potential_at_center(self):
        got = novikov.toric_superpotential(
            [(1, 0), (0, 1), (-1, -1)], [F(0), F(0), F(-1)], (F(1, 3), F(1, 3))
        )
        assert set(got.terms) == {(1, 0), (0, 1), (-1, -1)}
        for s in got.terms.values():
            assert s == t_monomial(F(1, 3))
        # NovikovLaurent compares by n and terms
        want = {nu: t_monomial(F(1, 3)) for nu in ((1, 0), (0, 1), (-1, -1))}
        assert got == novikov.NovikovLaurent(2, want)
        assert got != novikov.NovikovLaurent(2, {**want, (1, 0): t_monomial(F(1, 2))})
        assert got != novikov.NovikovLaurent(3, {(*nu, 0): s for nu, s in want.items()})

    def test_outside_polytope(self):
        with pytest.raises(errors.OutsidePolytope) as exc:
            novikov.toric_superpotential([(1, 0), (0, 1)], [F(0), F(0)], (F(-1), F(1)))
        assert exc.value.index == 0

    def test_boundary_is_outside(self):
        with pytest.raises(errors.OutsidePolytope):
            novikov.toric_superpotential([(1, 0), (0, 1)], [F(0), F(0)], (F(0), F(1)))

    def test_corrections_multiply_in(self):
        corr = [constant(1) + t_monomial(2), constant(1)]
        got = novikov.toric_superpotential(
            [(1, 0), (0, 1)], [F(0), F(0)], (F(1), F(1)), corrections=corr
        )
        assert got.terms[(1, 0)] == t_monomial(1) + t_monomial(3)
        assert got.terms[(0, 1)] == t_monomial(1)


class TestEnergies:
    def test_open_ambient_accepts_no_h(self):
        spec = fan.builtin_fan("cpn", n=3)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1, 1]})
        assert ea.energy_of(RelClass(2, (1, 0), (0,))) == 3

    def test_compact_validates_beta_prime(self):
        spec = fan.builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [4]})
        # E(beta') = 4 - 2*1 - 1 = 1
        assert ea.energy_of(fan.beta_prime_class(spec, 1)) == 1

    def test_rejects_tight_sphere_energy(self):
        spec = fan.builtin_fan("cpn", n=2)
        with pytest.raises(errors.EnergyViolation):
            novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [3]})

    def test_rejects_nonpositive_generators(self):
        spec = fan.builtin_fan("cpn", n=2)
        with pytest.raises(errors.EnergyViolation):
            novikov.assign_energies(spec, {"beta_hat": 0, "gamma": [1]})
        with pytest.raises(errors.EnergyViolation):
            novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [F(-1, 2)]})

    def test_needs_h_for_sphere_classes(self):
        spec = fan.builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1]})
        with pytest.raises(errors.EnergyViolation):
            ea.energy_of(fan.sphere_class(spec, 1))

    @pytest.mark.parametrize(
        "cls",
        [RelClass(0, (), (1,)), RelClass(0, (1, 2), (0,)), RelClass(0, (1,), (1, 1))],
        ids=["short-g", "long-g", "long-h"],
    )
    def test_energy_of_checks_class_shape(self, cls):
        # a missing gamma coordinate used to read as 0 (energy 4) and a
        # long class to die on a raw IndexError
        spec = fan.builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [4]})
        with pytest.raises(errors.DimensionMismatch, match="does not match fan"):
            ea.energy_of(cls)

    def test_unknown_keys(self):
        spec = fan.builtin_fan("cpn", n=2)
        with pytest.raises(errors.BadParams):
            novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "area": [1]})

    @pytest.mark.parametrize(
        "values",
        [
            {"gamma": [1]},
            {"beta_hat": 1, "gamma": 5},
            {"beta_hat": 1, "gamma": "1"},
            {"beta_hat": 0.1, "gamma": [1]},
            {"beta_hat": 1, "gamma": [0.5], "H": [4]},
            {"beta_hat": 1, "gamma": [1], "H": 4},
            fan.EnergyValues(0.1, (F(1),)),
            fan.EnergyValues(F(1), (0.5,), (F(4),)),
            fan.EnergyValues(F(1), (F(1),), 4),
            5,
        ],
    )
    def test_energies_never_rounded(self, values):
        # a missing beta_hat used to raise a raw KeyError, "gamma": 5 a raw
        # TypeError, and EnergyValues(0.1, ...) kept the float 0.1
        spec = fan.builtin_fan("cpn", n=2)
        with pytest.raises(errors.BadParams):
            novikov.assign_energies(spec, values)

    def test_energies_from_spec_are_checked(self):
        spec = fan.FanSpec(2, ((1, 1),), energies=fan.EnergyValues(0.1, (F(1),)))
        with pytest.raises(errors.BadParams):
            novikov.assign_energies(spec)

    def test_exact_energies_accepted(self):
        spec = fan.builtin_fan("cpn", n=2)
        by_doc = novikov.assign_energies(spec, {"beta_hat": "1/2", "gamma": ["0.1"], "H": [4]})
        by_values = novikov.assign_energies(spec, fan.EnergyValues(F(1, 2), ("0.1",), (4,)))
        assert by_doc == by_values
        assert (by_doc.beta_hat, by_doc.gamma, by_doc.h) == (F(1, 2), (F(1, 10),), (F(4),))


class TestEvaluate:
    def test_single_disk_n1(self):
        spec = fan.builtin_fan("cpn", n=1)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": []})
        w = series.monomial(1, 1, RelClass(1, (), (0,)))
        # T^1 * Y^(-1) at Y = T^(1/2) gives T^(1/2)
        got = novikov.evaluate(w, ea, [t_monomial(F(1, 2))])
        assert got == t_monomial(F(1, 2))

    def test_zero_coordinate(self):
        spec = fan.builtin_fan("cpn", n=1)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": []})
        w = series.monomial(1, 1, RelClass(1, (), (0,)))
        with pytest.raises(errors.ZeroCoordinate):
            novikov.evaluate(w, ea, [novikov.ZERO])

    def test_clifford_value_on_cp2(self):
        spec = fan.builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [4]})
        w = wallcross.clifford_superpotential(spec, wallcross.Ambient.COMPACT)
        pt = [t_monomial(F(1, 4)), t_monomial(F(1, 3))]
        got = novikov.evaluate(w.series, ea, pt)
        # beta_1: T^2 / Y_1, beta_2: T / Y_2, beta': T Y_1 Y_2
        expected = (
            t_monomial(F(2) - F(1, 4))
            + t_monomial(F(1) - F(1, 3))
            + t_monomial(F(1) + F(1, 4) + F(1, 3))
        )
        assert got == expected

    def test_evaluation_is_multiplicative(self):
        spec = fan.builtin_fan("cpn", n=2)
        ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [2], "H": [5]})
        pt = [t_monomial(F(1, 5), 2), t_monomial(F(1, 7), -3)]
        f = series.ClassSeries(
            2, 1, {RelClass(1, (0,), (0,)): F(1), RelClass(0, (1,), (0,)): F(2)}
        )
        g = series.ClassSeries(
            2, 1, {RelClass(-1, (2,), (1,)): F(1, 3), RelClass(0, (0,), (0,)): F(1)}
        )
        lhs = novikov.evaluate(series.multiply(f, g), ea, pt)
        rhs = novikov.evaluate(f, ea, pt) * novikov.evaluate(g, ea, pt)
        assert lhs == rhs


class TestStrictExponents:
    @pytest.mark.parametrize("nu", [(1.9, 0), (True, 0), ("1", 0), (F(1), 0), 5])
    def test_laurent_exponent_never_rounded(self, nu):
        # (1.9, 0) used to become the key (1, 0); 5 raised a raw TypeError
        with pytest.raises(errors.BadParams):
            novikov.NovikovLaurent(2, {nu: novikov.ONE})

    @pytest.mark.parametrize(
        "make",
        [lambda: t_monomial(0.1), lambda: t_monomial(1, 0.5), lambda: constant(0.1),
         lambda: constant(True), lambda: NovikovScalar.from_terms([(0.5, 1)]),
         lambda: NovikovScalar.from_terms([(F(1, 2), 1)], cutoff=0.1),
         lambda: NovikovScalar.from_terms([(None, 1)]), lambda: novikov.ONE.truncated(0.1),
         lambda: novikov.scalar_inverse(t_monomial(1), 0.1)],
    )
    def test_scalar_constructors_never_round(self, make):
        # t_monomial(0.1) used to give T^3602879701896397/36028797018963968
        with pytest.raises(errors.BadParams):
            make()

    @pytest.mark.parametrize("make", [
        lambda: novikov.NovikovLaurent("x", {}), lambda: novikov.NovikovLaurent(1.0, {}),
        lambda: novikov.NovikovLaurent(1, None), lambda: novikov.NovikovLaurent(1, [((1,), 1)]),
        lambda: novikov.NovikovLaurent(-1, {}),
        lambda: novikov.assign_energies(None),
        lambda: novikov.assign_energies(5, {"beta_hat": 1, "gamma": [1]}),
        lambda: NovikovScalar(5), lambda: NovikovScalar.from_terms(5),
        lambda: NovikovScalar("T"), lambda: NovikovScalar([(1,)]),
        lambda: NovikovScalar.from_terms([(0, 1), (1, 2, 3)]), lambda: NovikovScalar([5]),
        lambda: NovikovScalar.from_terms(["12"]),
    ], ids=["n-str", "n-float", "terms-none", "terms-list", "n-negative", "spec-none",
            "spec-int", "scalar-int", "from-terms-int", "scalar-str", "short-pair", "long-pair",
            "int-pair", "str-pair"])
    def test_constructor_arguments_are_checked(self, make):
        # NovikovLaurent("x", {}) and NovikovLaurent(-1, {}) used to be
        # accepted, and a None terms or spec to end in a raw AttributeError;
        # NovikovScalar(5) ended in a raw TypeError, NovikovScalar([(1,)]) in
        # a raw ValueError, and the pair "12" was read as (1, 2)
        with pytest.raises(errors.BadParams):
            make()

    @pytest.mark.parametrize("make, message", [
        (lambda: novikov.ONE + 1, "scalar operand must be a NovikovScalar, got 1"),
        (lambda: novikov.ONE * 2, "scalar operand must be a NovikovScalar, got 2"),
        (lambda: novikov.ONE - None, "scalar operand must be a NovikovScalar, got None"),
        (lambda: novikov.scalar_pow(1, 2), "scalar operand must be a NovikovScalar, got 1"),
        (lambda: novikov.scalar_inverse(2), "scalar operand must be a NovikovScalar, got 2"),
        (lambda: novikov.laurent_mul(1, 2), "Laurent operand must be a NovikovLaurent, got 1"),
    ], ids=["add", "mul", "sub", "pow", "inverse", "laurent-mul"])
    def test_operands_must_be_novikov(self, make, message):
        # each used to end in a raw AttributeError, or a TypeError from the
        # unary minus of ONE - None
        with pytest.raises(errors.BadParams) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize("coeff", [5, F(1), None, "1"])
    def test_laurent_coefficient_must_be_scalar(self, coeff):
        # 5 used to raise a raw AttributeError
        with pytest.raises(errors.BadParams):
            novikov.NovikovLaurent(1, {(1,): coeff})

    @pytest.mark.parametrize("normal", [(1.5, 0), (True, 0), ("1", 0), 5])
    def test_facet_normal_never_rounded(self, normal):
        with pytest.raises(errors.BadParams):
            novikov.toric_superpotential([normal, (0, 1)], [F(0), F(0)], (F(1), F(1)))

    @pytest.mark.parametrize(
        "normals, constants, q",
        [([5], [0], (1,)), ([(1,)], [0.5], (1,)), ([(1,)], [0], (0.1,)),
         ([(1,)], [None], (1,)), ([(1,)], [0], 1), ([(1,)], 0, (1,))],
    )
    def test_toric_data_never_rounded(self, normals, constants, q):
        with pytest.raises(errors.BadParams):
            novikov.toric_superpotential(normals, constants, q)

    @pytest.mark.parametrize("vertices", [[(0.5,)], [(True,)], [5], 5])
    def test_gauss_vertices_never_rounded(self, vertices):
        f = novikov.NovikovLaurent(1, {(1,): novikov.ONE})
        with pytest.raises(errors.BadParams):
            novikov.gauss_valuation(f, vertices)

    @pytest.mark.parametrize("f", [5, [((1,), novikov.ONE)], None])
    def test_gauss_needs_laurent(self, f):
        # 5 used to raise a raw TypeError
        with pytest.raises(errors.BadParams):
            novikov.gauss_valuation(f, [(F(0),)])

    @pytest.mark.parametrize("k", [1.5, True, "2", None])
    def test_scalar_pow_exponent_must_be_int(self, k):
        # 1.5 used to raise a raw TypeError, True to return x
        with pytest.raises(errors.BadParams):
            novikov.scalar_pow(t_monomial(1), k)

    @pytest.mark.parametrize("e", [0.1, True, None])
    def test_coeff_exponent_never_rounded(self, e):
        # coeff(0.1) used to return 0 and coeff(True) to look up exponent 1
        x = t_monomial("1/10", 3) + t_monomial(1, 5)
        with pytest.raises(errors.BadParams):
            x.coeff(e)
        assert (x.coeff("1/10"), x.coeff(F(1, 10)), x.coeff(1)) == (3, 3, 5)

    def test_exact_strings_accepted(self):
        assert t_monomial("1/2", "0.1") == NovikovScalar(((F(1, 2), F(1, 10)),))
        assert NovikovScalar.from_terms([(1, 1)], cutoff="1/2") == NovikovScalar((), F(1, 2))
        f = novikov.NovikovLaurent(1, {(1,): novikov.ONE})
        assert novikov.gauss_valuation(f, [("0.1",)]) == F(1, 10)
        got = novikov.toric_superpotential([(1,)], ["-1/2"], ("0.1",))
        assert got.terms == {(1,): t_monomial(F(3, 5))}


def reference_evaluate(s, ea, point):
    """The per-term algorithm: each term a NovikovScalar product, the terms
    summed one at a time with +."""
    total = novikov.ZERO
    for cls, coeff in s.items():
        term = t_monomial(ea.energy_of(cls), coeff)
        for xi, wi in zip(point, fan.class_boundary(ea.fan, cls)):
            if wi:
                term = term * novikov.scalar_pow(xi, wi)
        total = total + term
    return total


def _outcome(fn, *args):
    try:
        x = fn(*args)
    except ValueError as exc:  # exact multi-term coordinate to a negative power
        return ("raised", ValueError, str(exc))
    except errors.EnergyViolation as exc:  # a sphere class without H energies
        return ("raised", errors.EnergyViolation, str(exc))
    return (x.terms, x.cutoff)


def fractions_over(denominators, lo, hi):
    """Fractions k/d in [lo, hi] with d drawn from the given denominators,
    so that values drawn together rarely share one."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(min_value=lo * d, max_value=hi * d).map(lambda k: F(k, d))
    )


nonzero_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)
exponents = fractions_over([1, 2, 3, 5, 7, 11], -3, 3)
monomial_coords = st.builds(t_monomial, exponents, nonzero_fracs)


@st.composite
def multi_term_coords(draw, with_cutoff):
    e0 = draw(exponents)
    rest = draw(
        st.lists(
            st.tuples(fractions_over([1, 2, 3, 5], 0, 2).filter(bool), nonzero_fracs),
            min_size=1, max_size=3,
        )
    )
    cut = e0 + draw(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)) if with_cutoff else None
    return NovikovScalar.from_terms([(e0, draw(nonzero_fracs))] + [(e0 + d, c) for d, c in rest], cut)


STOCK_FANS = [
    fan.builtin_fan("cpn", n=1), fan.builtin_fan("cpn", n=2), fan.builtin_fan("cpn", n=3),
    fan.builtin_fan("hirzebruch_f1"),
] + [fan.builtin_fan("cp_product", n=n, r=r) for n in (2, 3, 4) for r in range(1, n)]


@st.composite
def fans_with_energies(draw, allow_no_h=False):
    spec = draw(st.sampled_from(STOCK_FANS))
    pos = fractions_over([1, 2, 3, 4, 5, 7, 13], 0, 3).filter(bool)
    beta = draw(pos)
    gamma = [draw(pos) for _ in range(spec.n - 1)]
    if allow_no_h and draw(st.booleans()):
        return novikov.assign_energies(spec, {"beta_hat": beta, "gamma": gamma})
    h = []
    for a in range(1, spec.m + 1):
        v, p = fan.ray_decomposition(spec, a)
        # E(beta'_a) = E(H_a) - p_a E(beta_hat) - sum_k v_ak E(gamma_k) > 0
        h.append(p * beta + sum(x * y for x, y in zip(v, gamma)) + draw(pos))
    return novikov.assign_energies(spec, {"beta_hat": beta, "gamma": gamma, "H": h})


def class_series_for(spec, max_terms=6):
    classes = st.builds(
        RelClass,
        st.integers(min_value=-2, max_value=2),
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * (spec.n - 1)),
        st.tuples(*[st.integers(min_value=0, max_value=2)] * spec.m),
    )
    return st.dictionaries(classes, nonzero_fracs, max_size=max_terms).map(
        lambda d: series.ClassSeries(spec.n, spec.m, d)
    )


@given(st.data())
@settings(max_examples=200)
def test_evaluate_matches_per_term_sum(data):
    # CP^1..CP^3, F_1 and CP^r x CP^(n-r) for n <= 4, with or without H
    # energies, energies and exponents over coprime denominators
    ea = data.draw(fans_with_energies(allow_no_h=True), label="ea")
    s = data.draw(class_series_for(ea.fan), label="s")
    coords = st.one_of(monomial_coords, multi_term_coords(True), multi_term_coords(False))
    point = data.draw(st.lists(coords, min_size=ea.fan.n, max_size=ea.fan.n), label="point")
    assert _outcome(novikov.evaluate, s, ea, point) == _outcome(reference_evaluate, s, ea, point)


@given(st.data())
@settings(max_examples=60)
def test_evaluate_cancels_to_zero(data):
    # at x_1 = x_n T^E(gamma_1) the class gamma_1 evaluates to 1, so
    # f * (1 - [gamma_1]) evaluates to 0 whatever f is
    ea = data.draw(fans_with_energies().filter(lambda ea: ea.fan.n >= 2), label="ea")
    spec = ea.fan
    f = data.draw(class_series_for(spec).filter(len), label="f")
    rest = data.draw(st.lists(monomial_coords, min_size=spec.n - 1, max_size=spec.n - 1))
    x_n = rest[-1]
    point = [x_n * t_monomial(ea.gamma[0])] + rest
    s = series.multiply(
        f, series.ClassSeries(spec.n, spec.m, {fan.zero_class(spec): 1, fan.gamma_class(spec, 1): -1})
    )
    got = novikov.evaluate(s, ea, point)
    assert got == novikov.ZERO
    assert _outcome(reference_evaluate, s, ea, point) == (got.terms, got.cutoff)


def test_evaluate_empty_series_is_zero():
    ea = novikov.assign_energies(fan.builtin_fan("cpn", n=2), {"beta_hat": 1, "gamma": [1]})
    assert novikov.evaluate(series.zero(2, 1), ea, [novikov.ONE, novikov.ONE]) == novikov.ZERO


def _stock_energies(spec):
    """Energies over the coprime denominators 2, 3, 5, ..., 17 with every
    E(beta'_a) = 1/17, for n <= 6."""
    beta = F(1, 2)
    gamma = [F(1, p) for p in (3, 5, 7, 11, 13)[: spec.n - 1]]
    h = []
    for a in range(1, spec.m + 1):
        v, p = fan.ray_decomposition(spec, a)
        h.append(p * beta + sum(x * y for x, y in zip(v, gamma)) + F(1, 17))
    return {"beta_hat": str(beta), "gamma": [str(g) for g in gamma], "H": [str(x) for x in h]}


@pytest.mark.parametrize("spec", STOCK_FANS, ids=lambda s: f"n{s.n}-{s.extra_rays}")
@pytest.mark.parametrize("chamber, point", [
    ("minus", ["-2*T^1/2", "T^-1/3", "3/2*T^2/5", "T^1/7"]),
    ("plus", ["T^1/11", "-T^3/2", "T", "2*T^-1/5"]),
])
def test_cli_eval_json_matches_reference(tmp_path, capsys, spec, chamber, point):
    energies = _stock_energies(spec)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "n": spec.n, "extra_rays": [list(v) for v in spec.extra_rays],
        "max_cones": [list(c) for c in spec.max_cones], "energies": energies,
    }))
    lits = point[: spec.n]
    code = cli.main(["eval", str(path), "--point", ",".join(lits), "--chamber", chamber,
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    make = {"minus": wallcross.chekanov_superpotential, "plus": wallcross.clifford_superpotential}
    w = make[chamber](spec, wallcross.Ambient.COMPACT)
    want = reference_evaluate(
        w.series, novikov.assign_energies(spec, energies), [cli.parse_scalar_literal(t) for t in lits]
    )
    assert out == cli.render_scalar(want, "json")


def _cp6_at_one_term_point():
    """The compact CP^6 Chekanov series, its stock energies and a point
    whose coordinates are single terms."""
    spec = fan.builtin_fan("cpn", n=6)
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    return w, ea, [t_monomial(F(k, 3), -k) for k in (1, 2, -1, 3, -2, 1)]


def test_evaluate_work_count(monkeypatch):
    # one compact CP^6 Chekanov evaluation at a single-term point: every
    # power x_i^w is one exact term, taken as ints by the monomial-point
    # character, so no NovikovScalar product is made (2236 when every term
    # was multiplied out, 93 while the powers went through scalar_pow)
    w, ea, point = _cp6_at_one_term_point()
    calls = 0
    mul = NovikovScalar.__mul__

    def counted(x, y):
        nonlocal calls
        calls += 1
        return mul(x, y)

    monkeypatch.setattr(NovikovScalar, "__mul__", counted)
    got = novikov.evaluate(w, ea, point)
    assert calls <= 100, f"{calls} NovikovScalar products for {len(w)} terms"
    monkeypatch.undo()
    assert got == reference_evaluate(w, ea, point)


def test_evaluate_product_count(monkeypatch):
    # at a single-term point every cached power is one exact monomial, so
    # evaluate shifts and scales each term by it with ints and never calls
    # _product (2236 when every term was folded through it, 93 while the
    # powers went through scalar_pow)
    w, ea, point = _cp6_at_one_term_point()
    calls = 0
    product = novikov._product

    def counted(*args):
        nonlocal calls
        calls += 1
        return product(*args)

    monkeypatch.setattr(novikov, "_product", counted)
    got = novikov.evaluate(w, ea, point)
    assert calls <= 100, f"{calls} _product calls for {len(w)} terms"
    monkeypatch.undo()
    assert got == reference_evaluate(w, ea, point)


@pytest.mark.parametrize("spec", [
    fan.builtin_fan("cpn", n=3), fan.builtin_fan("cp_product", n=3, r=1),
], ids=["cp3", "cp1xcp2"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_evaluate_mixes_monomial_and_folded_powers(spec, sign, slot):
    # two one-term coordinates with non-integer coefficients, applied as a
    # shift and a scale, and one multi-term coordinate with a cutoff, folded
    # through _product; the terms' cutoffs are shifted by their exponents
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    e0 = sign * F(1, 2)
    multi = NovikovScalar.from_terms(
        [(e0, 1), (e0 + F(1, 7), -3), (e0 + F(2, 3), F(1, 2))], e0 + F(5, 4)
    )
    point = [t_monomial(sign * F(1, 3), F(-2, 5)), t_monomial(sign * F(2, 5), F(3, 2))]
    point.insert(slot, multi)
    got = novikov.evaluate(w, ea, point)
    want = reference_evaluate(w, ea, point)
    assert got.terms and got.cutoff is not None
    assert (got.terms, got.cutoff) == (want.terms, want.cutoff)


class TestSeriesShape:
    # evaluate checks the series shape once per call, not once per term
    CP2 = fan.builtin_fan("cpn", n=2)

    @pytest.mark.parametrize("n, m, cls", [
        (3, 1, RelClass(1, (0, 0), (0,))),
        (2, 0, RelClass(1, (1,), ())),
    ], ids=["n", "m"])
    def test_nonempty_wrong_shape_keeps_the_message(self, n, m, cls):
        ea = novikov.assign_energies(self.CP2, {"beta_hat": 1, "gamma": [1], "H": [4]})
        s = series.ClassSeries(n, m, {cls: 1})
        with pytest.raises(errors.DimensionMismatch) as exc:
            novikov.evaluate(s, ea, [novikov.ONE, novikov.ONE])
        assert str(exc.value) == f"class shape ({n - 1}, {m}) does not match fan (1, 1)"

    def test_sphere_energy_check_comes_first(self):
        # the first term's missing-H check runs before its shape check, as
        # when every term was checked on its own
        ea = novikov.assign_energies(self.CP2, {"beta_hat": 1, "gamma": [1]})
        s = series.ClassSeries(3, 1, {RelClass(0, (0, 0), (1,)): 1})
        with pytest.raises(errors.EnergyViolation):
            novikov.evaluate(s, ea, [novikov.ONE, novikov.ONE])

    @pytest.mark.parametrize("n, m", [(3, 1), (2, 0), (1, 0)])
    def test_empty_wrong_shape_is_zero(self, n, m):
        ea = novikov.assign_energies(self.CP2, {"beta_hat": 1, "gamma": [1], "H": [4]})
        got = novikov.evaluate(series.zero(n, m), ea, [novikov.ONE, novikov.ONE])
        assert got == novikov.ZERO

    def test_no_checked_boundary_per_term(self, monkeypatch):
        w, ea, point = _cp6_at_one_term_point()
        calls = _count_calls(monkeypatch, fan.class_boundary)
        novikov.evaluate(w, ea, point)
        assert calls["n"] == 0


def _count_calls(monkeypatch, fn):
    """Count the calls of fn through every opengw module that binds it."""
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "opengw" or name.startswith("opengw."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


# the factored Chekanov evaluation against the expanded one

FACTORED_FANS = [fan.builtin_fan("cpn", n=n) for n in range(1, 7)] + [
    fan.builtin_fan("hirzebruch_f1"),
] + [fan.builtin_fan("cp_product", n=n, r=r) for n, r in ((2, 1), (3, 1), (3, 2), (4, 1),
                                                          (4, 2), (4, 3), (5, 2))] + [
    fan.FanSpec(2, ((1, -1),)),  # p = 0: that disk crosses the wall unchanged
]


def _fan_id(spec):
    return f"n{spec.n}-" + "-".join("".join(map(str, v)) for v in spec.extra_rays)


small_energies = fractions_over([1, 2, 3], 0, 2).filter(bool)
small_coeffs = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 2)])


@st.composite
def energies_for(draw, spec):
    """Energies over small denominators, so that T-exponents collide."""
    beta = draw(small_energies)
    gamma = [draw(small_energies) for _ in range(spec.n - 1)]
    h = []
    for a in range(1, spec.m + 1):
        v, p = fan.ray_decomposition(spec, a)
        h.append(p * beta + sum(x * y for x, y in zip(v, gamma)) + draw(small_energies))
    return {"beta_hat": str(beta), "gamma": [str(g) for g in gamma], "H": [str(x) for x in h]}


@st.composite
def monomial_points(draw, spec, energies):
    """n one-term coordinates with exponents of both signs.  Some points are
    all 1; in others x_k = s x_n T^{E(gamma_k) + delta}, so that ev(gamma_k)
    is s T^-delta and the terms of ev(f) collide or cancel."""
    if draw(st.integers(0, 5)) == 0:
        return [novikov.ONE] * spec.n
    x_n = t_monomial(draw(exponents), draw(small_coeffs))
    point = []
    for k in range(spec.n - 1):
        if draw(st.booleans()):
            gamma_k = F(energies["gamma"][k])
            delta = draw(st.sampled_from([F(0), F(0), F(1, 2), F(-1)]))
            point.append(x_n * t_monomial(gamma_k + delta, draw(st.sampled_from([1, -1]))))
        else:
            point.append(t_monomial(draw(exponents), draw(nonzero_fracs)))
    return point + [x_n]


def _cli(argv):
    """cli.main's (exit code, stdout, stderr), or the exception that escapes it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except ValueError as exc:  # the multi-term point's scalar_inverse
            return ("raised", type(exc), str(exc))
    return code, out.getvalue(), err.getvalue()


def _fan_file(directory, spec) -> str:
    path = directory / f"{_fan_id(spec)}.json"
    path.write_text(json.dumps({"n": spec.n, "extra_rays": [list(v) for v in spec.extra_rays]}))
    return str(path)


def _check_paths_agree(directory, spec, data):
    energies = data.draw(energies_for(spec), label="energies")
    point = data.draw(monomial_points(spec, energies), label="point")
    fmt = data.draw(st.sampled_from(["table", "csv", "json"]), label="format")
    lits = [str(x) for x in point]
    assert [cli.parse_scalar_literal(t) for t in lits] == point
    got = _cli(["eval", _fan_file(directory, spec), "--point", ",".join(lits),
                "--energies", json.dumps(energies), "--format", fmt])
    ea = novikov.assign_energies(spec, energies)
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    assert got == (0, cli.render_scalar(novikov.evaluate(w, ea, point), fmt), "")
    assert got[1] == cli.render_scalar(reference_evaluate(w, ea, point), fmt)


@pytest.mark.parametrize("spec", FACTORED_FANS[:5] + FACTORED_FANS[6:], ids=_fan_id)
@given(data=st.data())
@settings(max_examples=12)
def test_factored_eval_matches_expanded(tmp_path_factory, spec, data):
    _check_paths_agree(tmp_path_factory.getbasetemp(), spec, data)


@given(data=st.data())
@settings(max_examples=3)
def test_factored_eval_matches_expanded_cp6(tmp_path_factory, data):
    # the per-term oracle takes about a second on the 463 terms of CP^6
    _check_paths_agree(tmp_path_factory.getbasetemp(), FACTORED_FANS[5], data)


def test_factored_eval_cancellation():
    # x_1 = -x_2 T^E(gamma_1) makes ev(f) = 0 on CP^2: only beta_hat is left
    spec = fan.builtin_fan("cpn", n=2)
    ea = novikov.assign_energies(spec, {"beta_hat": 1, "gamma": [1], "H": [4]})
    x_2 = t_monomial(F(1, 2), F(2, 3))
    point = [-x_2 * t_monomial(1), x_2]
    got = wallcross.evaluate_chekanov(ea, point)
    assert got == t_monomial(F(1, 2), F(3, 2))
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    assert got == novikov.evaluate(w, ea, point)


NEG_P = {"n": 2, "extra_rays": [[-1, -2]], "energies": {"beta_hat": "1", "gamma": ["1"], "H": ["1"]}}


@pytest.mark.parametrize("doc, args", [
    (None, ["--point", "1+T,T"]),                        # multi-term: raw ValueError
    (None, ["--point", "T^1/2,-T+2*T^3", "--format", "json"]),  # multi-term, positive powers only
    (None, ["--point", "0,T"]),                          # zero coordinate
    (None, ["--point", "T,T,T"]),                        # wrong coordinate count
    (None, ["--point", "T"]),
    (None, ["--point", "T,T", "--energies", '{"beta_hat": "1", "gamma": ["1"]}']),  # no H
    (NEG_P, ["--point", "T,T"]),                         # NegativePa
    (None, ["--point", "T,2*T^-1", "--ambient", "open"]),
    (None, ["--point", "T,2*T^-1", "--chamber", "plus"]),
    (None, ["--point", "T,2*T^-1", "--chamber", "plus", "--ambient", "open"]),
], ids=["multi-term", "multi-term-positive", "zero", "too-many", "too-few", "no-h",
        "negative-p", "open", "plus", "plus-open"])
def test_fallback_matches_expanded_path(tmp_path, monkeypatch, doc, args):
    # every input that is not a monomial point of the compact Chekanov
    # potential goes the expanded way: same exit code, stdout and stderr
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(doc or {
        "n": 2, "extra_rays": [[1, 1]], "energies": {"beta_hat": "1", "gamma": ["1"], "H": ["4"]},
    }))
    argv = ["eval", str(path), *args]
    characters = []
    monomial_character = novikov.monomial_character

    def character(ea, point):
        characters.append(monomial_character(ea, point))
        return characters[-1]

    # evaluate_chekanov imports it from novikov when called
    monkeypatch.setattr(novikov, "monomial_character", character)
    got = _cli(argv)
    assert not any(characters)
    monkeypatch.undo()

    def expanded(ea, point):
        w = wallcross.chekanov_superpotential(ea.fan, wallcross.Ambient.COMPACT)
        return novikov.evaluate(w.series, ea, point)

    monkeypatch.setattr(cli, "evaluate_chekanov", expanded)
    assert got == _cli(argv)


def test_factored_eval_work_count(monkeypatch, tmp_path):
    # one opengw eval of the compact CP^6 Chekanov potential at a one-term
    # point: one checked boundary per generator class (beta_hat, the gamma_k
    # and the beta'_a), and no expanded series is built or unpacked (463
    # checked boundaries, one times_power and one unpack when it was)
    spec = fan.builtin_fan("cpn", n=6)
    path = tmp_path / "cp6.json"
    path.write_text(json.dumps({"n": 6, "extra_rays": [[1] * 6], "energies": _stock_energies(spec)}))
    lits = ["1/3*T^-1", "-2/3*T^2", "-1/3*T^-1", "3/5*T^3", "-2/3*T^-2", "1/3*T"]
    argv = ["eval", str(path), "--point", ",".join(lits), "--format", "json"]
    boundaries = _count_calls(monkeypatch, fan.class_boundary)
    powers = _count_calls(monkeypatch, series.times_power)
    unpacks = _count_calls(monkeypatch, series._unpacked)
    got = _cli(argv)
    assert boundaries["n"] <= spec.n + spec.m, f"{boundaries['n']} class_boundary calls"
    assert (powers["n"], unpacks["n"]) == (0, 0)
    monkeypatch.undo()
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    want = novikov.evaluate(w, ea, [cli.parse_scalar_literal(t) for t in lits])
    assert got == (0, cli.render_scalar(want, "json"), "")
    # the scalar is rendered from its int columns: the op builds 144
    # Fractions in every format, none per output term (1,088 when the
    # solve's ints became two Fractions per term)
    new = Fraction.__new__

    def counted(*args, **kwargs):
        made["n"] += 1
        return new(*args, **kwargs)

    for fmt in ("json", "csv", "table"):
        made = {"n": 0}
        monkeypatch.setattr(Fraction, "__new__", counted)
        got = _cli(argv[:-1] + [fmt])
        monkeypatch.undo()
        assert made["n"] <= 200, f"{made['n']} Fractions in {fmt}"
        assert got == (0, cli.render_scalar(want, fmt), "")


@pytest.mark.parametrize("bad", [1, F(1, 2), None, "T"], ids=repr)
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_non_scalar_is_bad_params(slot, bad):
    # a point coordinate or a correction that is not a NovikovScalar used to
    # end in a raw AttributeError: 'is_zero' in trop, 'cutoff' in
    # monomial_character, 'terms' in the correction product
    spec = fan.builtin_fan("cpn", n=3)
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    point = [t_monomial(1, 2), t_monomial(F(1, 2), -1), constant(3)]
    point[slot] = bad
    with pytest.raises(errors.BadParams) as want:
        novikov.evaluate(w, ea, point)
    with pytest.raises(errors.BadParams) as got:
        wallcross.evaluate_chekanov(ea, point)
    assert str(got.value) == str(want.value)
    corrections = [novikov.ONE, t_monomial(1), constant(2)]
    corrections[slot] = bad
    with pytest.raises(errors.BadParams):
        novikov.toric_superpotential(
            [(1, 0), (0, 1), (-1, -1)], [F(0), F(0), F(-1)], (F(1, 3), F(1, 3)), corrections
        )


def _value_or_error(call):
    """call()'s value, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # the multi-term point's scalar_inverse is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", [
    fan.FanSpec(2, ()),               # no ray at infinity: BadParams first
    fan.FanSpec(2, ((-1, -2),)),      # p_1 = -3: NegativePa before any point error
    fan.builtin_fan("cpn", n=2),      # the build cannot fail: the point checks first
], ids=["m0", "negative-p", "cp2"])
@pytest.mark.parametrize("with_h", [True, False], ids=["h", "no-h"])
@pytest.mark.parametrize("point", [
    [t_monomial(1, 2), t_monomial(F(1, 2), -1)],
    [novikov.ZERO, t_monomial(1)],
    [t_monomial(1)],
    [t_monomial(1), t_monomial(1), t_monomial(1)],
    [1, t_monomial(1)],
    [constant(1) + t_monomial(1), t_monomial(1)],
    [t_monomial(1, 2), t_monomial(1).truncated(3)],
    None,
    5,
    "T,T",
], ids=["monomial", "zero", "too-few", "too-many", "not-a-scalar", "multi-term", "cutoff",
        "none", "int", "str"])
def test_chekanov_errors_match_expanded_path(spec, with_h, point):
    # every fan, energy and point combination: the same value, or the same
    # exception type and message, as evaluating the expanded series
    values = {"beta_hat": 1, "gamma": [1]}
    if with_h:
        values["H"] = [5] * spec.m
    ea = novikov.assign_energies(spec, values)

    def expanded():
        w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
        return novikov.evaluate(w, ea, point)

    got = _value_or_error(lambda: wallcross.evaluate_chekanov(ea, point))
    assert got == _value_or_error(expanded)
    if not isinstance(point, list):
        # a point that is not a sequence used to end in a raw TypeError,
        # with a different message on each path
        assert issubclass(got[0], errors.DomainError), got


@pytest.mark.parametrize("bad, error", [
    (novikov.ZERO, errors.ZeroCoordinate), (None, errors.DimensionMismatch),
], ids=["zero", "too-few"])
def test_bad_point_is_refused_before_the_expansion(monkeypatch, bad, error):
    # on CP^6 a bad point used to build the 463-term series before evaluate
    # looked at the point
    spec = fan.builtin_fan("cpn", n=6)
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    point = [t_monomial(1)] * 5 + ([bad] if bad is not None else [])
    solves = _count_calls(monkeypatch, series._times_powers)
    with pytest.raises(error):
        wallcross.evaluate_chekanov(ea, point)
    assert solves["n"] == 0


# a scalar is int columns: rendered and compared without a Fraction per term

def _scalar_reference(x, fmt):
    """render_scalar as str(Fraction) of every exponent and coefficient."""
    pairs = [(str(e), str(c)) for e, c in x.terms]
    if fmt == "json":
        return json.dumps({
            "terms": [{"exponent": e, "coefficient": c} for e, c in pairs],
            "cutoff": None if x.cutoff is None else str(x.cutoff),
        }, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        return "exponent,coefficient\n" + "".join(f"{e},{c}\n" for e, c in pairs)
    parts = []
    for e, c in x.terms:
        if e == 0:
            frag = str(c)
        elif c in (1, -1):
            frag = f"T^{e}" if c == 1 else f"-T^{e}"
        else:
            frag = f"{c}*T^{e}"
        if parts:
            frag = f"- {frag[1:]}" if frag.startswith("-") else f"+ {frag}"
        parts.append(frag)
    body = " ".join(parts) or "0"
    return body + ("" if x.cutoff is None else f" + O(T^{x.cutoff})") + "\n"


HAND_SCALARS = {
    "zero": ([], None),
    "zero-cut": ([], F(-5, 2)),
    "exponent-0": ([(0, F(-7, 3))], None),
    "ones": ([(0, 1), (F(1, 2), 1), (F(2, 3), -1), (3, 1), (4, -1)], None),
    "minus-one-first": ([(F(-3, 4), -1), (0, -1)], None),
    "negative": ([(F(-5, 3), F(-1, 4)), (-1, 12), (F(1, 2), -7)], F(7, 2)),
    "unreduced": ([("2/4", "6/8"), ("-9/6", "-10/4"), ("4/2", "3/9")], "20/8"),
    "cut-drops": ([(0, 1), (1, 2), (2, 3)], 1),
    "merges": ([(1, F(1, 2)), (1, F(1, 2)), (0, 3), (0, -3)], None),
}


def _hand_scalar(key):
    pairs, cutoff = HAND_SCALARS[key]
    return NovikovScalar.from_terms(pairs, cutoff)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("key", HAND_SCALARS)
def test_render_scalar_matches_fraction_reference(key, fmt):
    x = _hand_scalar(key)
    assert cli.render_scalar(x, fmt) == _scalar_reference(x, fmt)
    # the same terms given as sorted Fraction pairs to the constructor
    y = NovikovScalar(x.terms, x.cutoff)
    assert (y, hash(y), cli.render_scalar(y, fmt)) == (x, hash(x), cli.render_scalar(x, fmt))


def test_hand_scalar_columns():
    # each column over its reduced common denominator, whatever the input
    assert _hand_scalar("unreduced").columns() == (2, (-3, 1, 4), 12, (-30, 9, 4))
    assert str(_hand_scalar("unreduced")) == "-5/2*T^-3/2 + 3/4*T^1/2 + 1/3*T^2 + O(T^5/2)"
    assert _hand_scalar("zero").columns() == (1, (), 1, ())
    assert _hand_scalar("cut-drops").columns() == (1, (0,), 1, (1,))
    assert _hand_scalar("merges").columns() == (1, (1,), 1, (1,))
    assert str(_hand_scalar("ones")) == "1 + T^1/2 - T^2/3 + T^3 - T^4"
    assert str(_hand_scalar("minus-one-first")) == "-T^-3/4 - 1"
    # unreduced ints straight into the columns
    x = NovikovScalar._of(12, [-18, 6], 8, [-20, 6], F(3, 2))
    assert x == NovikovScalar.from_terms([(F(-3, 2), F(-5, 2)), (F(1, 2), F(3, 4))], "3/2")
    assert x.columns() == (2, (-3, 1), 4, (-10, 3))
    assert hash(x) == hash(NovikovScalar(x.terms, x.cutoff))


@pytest.mark.parametrize("spec", FACTORED_FANS, ids=_fan_id)
def test_factored_scalar_renders_and_hashes(spec):
    # evaluate_chekanov builds its result from the solve's ints; it renders
    # as the str(Fraction) reference in every format and equals, with equal
    # hash, the same terms built from Fraction pairs and evaluate's result
    ea = novikov.assign_energies(spec, _stock_energies(spec))
    point = [t_monomial(F(k, 3), F(-k, 5) if k % 2 else k) for k in (1, 2, -1, 3, -2, 1)[:spec.n]]
    got = wallcross.evaluate_chekanov(ea, point)
    w = wallcross.chekanov_superpotential(spec, wallcross.Ambient.COMPACT).series
    for y in (NovikovScalar.from_terms(got.terms), NovikovScalar(got.terms),
              novikov.evaluate(w, ea, point)):
        assert (y, hash(y)) == (got, hash(got))
    for fmt in ("json", "csv", "table"):
        assert cli.render_scalar(got, fmt) == _scalar_reference(got, fmt)
