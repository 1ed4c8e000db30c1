"""Superpotentials, gluing, invariant tables, closed-form oracles."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opengw import errors, series, wallcross
from opengw.fan import (
    FanSpec,
    RelClass,
    beta_class,
    beta_hat_class,
    beta_prime_class,
    builtin_fan,
    class_maslov,
    class_name,
    gamma_class,
)
from opengw.novikov import assign_energies, evaluate, evaluate_chekanov, t_monomial
from opengw.series import ClassSeries, monomial, truncate_gamma
from opengw.wallcross import (
    Ambient,
    Chart,
    Direction,
    GluingData,
    apply_gluing,
    chekanov_superpotential,
    clifford_superpotential,
    closed_form_invariant,
    glue_superpotential,
    invariant_table,
    solve_exp_G,
    verify_wall_cross_identity,
    wall_cross_rhs,
    wall_crossing_factor,
)

F = Fraction

BUILTIN_FANO = [
    builtin_fan("cpn", n=2),
    builtin_fan("cpn", n=3),
    builtin_fan("cpn", n=4),
    builtin_fan("cp_product", n=2, r=1),
    builtin_fan("cp_product", n=3, r=1),
    builtin_fan("cp_product", n=5, r=2),
    builtin_fan("hirzebruch_f1"),
]


class TestSuperpotentials:
    def test_cp2_clifford_terms(self):
        spec = builtin_fan("cpn", n=2)
        w = clifford_superpotential(spec, Ambient.COMPACT)
        assert w.chamber is Chart.CLIFFORD
        expected = {
            RelClass(1, (1,), (0,)): F(1),  # beta_1 = beta_hat + gamma_1
            RelClass(1, (0,), (0,)): F(1),  # beta_2 = beta_hat
            RelClass(-2, (-1,), (1,)): F(1),  # H - 2*beta_hat - gamma_1
        }
        assert w.series == ClassSeries(2, 1, expected)

    def test_open_n1_is_single_disk(self):
        spec = FanSpec(1, ())
        w = clifford_superpotential(spec, Ambient.OPEN)
        assert w.series == monomial(1, 0, RelClass(1, (), ()))

    def test_f1_clifford_has_both_infinity_disks(self):
        spec = builtin_fan("hirzebruch_f1")
        w = clifford_superpotential(spec, Ambient.COMPACT)
        assert len(w.series) == 4
        assert w.series.coeff(RelClass(-2, (-1,), (1, 0))) == 1
        assert w.series.coeff(RelClass(-1, (0,), (0, 1))) == 1

    def test_compact_needs_extra_rays(self):
        with pytest.raises(errors.BadParams):
            clifford_superpotential(FanSpec(2, ()), Ambient.COMPACT)

    @pytest.mark.parametrize("make", [clifford_superpotential, chekanov_superpotential])
    @pytest.mark.parametrize("ambient", ["compact", "open", None, Chart.CLIFFORD])
    def test_ambient_must_be_an_ambient(self, make, ambient):
        # "compact" used to give an open-ambient series tagged "compact"
        with pytest.raises(errors.BadParams) as exc:
            make(builtin_fan("cpn", n=2), ambient)
        assert str(exc.value) == f"ambient must be an Ambient, got {ambient!r}"

    def test_chekanov_open_is_beta_hat_alone(self):
        for n in (1, 2, 5):
            spec = FanSpec(n, ())
            w = chekanov_superpotential(spec, Ambient.OPEN)
            assert w.chamber is Chart.CHEKANOV
            assert w.series == monomial(n, 0, beta_hat_class(spec))

    def test_cp2_chekanov_values(self):
        spec = builtin_fan("cpn", n=2)
        w = chekanov_superpotential(spec, Ambient.COMPACT)
        assert w.series == ClassSeries(
            2,
            1,
            {
                RelClass(1, (0,), (0,)): F(1),
                RelClass(-2, (-1,), (1,)): F(1),
                RelClass(-2, (0,), (1,)): F(2),
                RelClass(-2, (1,), (1,)): F(1),
            },
        )

    def test_negative_coordinate_sum_rejected(self):
        spec = FanSpec(2, ((-1, -2),), max_cones=None)
        with pytest.raises(errors.NegativePa) as exc:
            chekanov_superpotential(spec, Ambient.COMPACT)
        assert exc.value.a == 1 and exc.value.p == -3

    def test_zero_coordinate_sum_allowed(self):
        # extra ray (1, -1) has p = 0: its disk crosses the wall unchanged
        spec = FanSpec(2, ((1, -1),))
        w = chekanov_superpotential(spec, Ambient.COMPACT)
        assert w.series.coeff(beta_prime_class(spec, 1)) == 1
        assert len(w.series) == 2

    def test_maslov_two_purity(self):
        for spec in BUILTIN_FANO:
            for make in (clifford_superpotential, chekanov_superpotential):
                w = make(spec, Ambient.COMPACT)
                for cls, _ in w.series.items():
                    assert class_maslov(spec, cls) == 2


class TestGluing:
    def test_factor_shape(self):
        spec = builtin_fan("cpn", n=4)
        gd = wall_crossing_factor(spec)
        assert len(gd.factor) == 4
        assert gd.factor.coeff(RelClass(0, (0, 0, 0), (0,))) == 1
        for k in (1, 2, 3):
            assert gd.factor.coeff(gamma_class(spec, k)) == 1

    def test_factor_n1_is_one(self):
        spec = FanSpec(1, ())
        assert wall_crossing_factor(spec).factor == series.one(1, 0)

    def test_open_clifford_collapses_to_beta_hat(self):
        for n in (2, 3, 5):
            spec = FanSpec(n, ())
            w = clifford_superpotential(spec, Ambient.OPEN)
            gd = wall_crossing_factor(spec, trunc=6)
            glued = apply_gluing(spec, w.series, gd)
            assert glued == monomial(n, 0, beta_hat_class(spec))

    def test_pure_gamma_monomial_is_fixed(self):
        spec = builtin_fan("cpn", n=3)
        s = monomial(3, 1, RelClass(0, (2, -1), (0,)), F(5, 3))
        gd = wall_crossing_factor(spec, trunc=4)
        assert apply_gluing(spec, s, gd) == s

    def test_cp2_sphere_disk_expansion(self):
        spec = builtin_fan("cpn", n=2)
        s = monomial(2, 1, beta_prime_class(spec, 1))
        glued = apply_gluing(spec, s, wall_crossing_factor(spec, trunc=8))
        assert glued == ClassSeries(
            2,
            1,
            {
                RelClass(-2, (-1,), (1,)): F(1),
                RelClass(-2, (0,), (1,)): F(2),
                RelClass(-2, (1,), (1,)): F(1),
            },
        )

    def test_linearity(self):
        spec = builtin_fan("cpn", n=2)
        gd = wall_crossing_factor(spec, trunc=8)
        a = monomial(2, 1, RelClass(1, (2,), (0,)), F(3))
        b = monomial(2, 1, RelClass(-1, (0,), (1,)), F(1, 2))
        lhs = apply_gluing(spec, a + b, gd)
        rhs = apply_gluing(spec, a, gd) + apply_gluing(spec, b, gd)
        assert lhs == rhs

    def test_context_mismatch(self):
        spec = builtin_fan("cpn", n=2)
        with pytest.raises(errors.DimensionMismatch):
            apply_gluing(spec, series.one(3, 1), wall_crossing_factor(spec))

    @pytest.mark.parametrize("trunc", [4, 8, 16])
    def test_gluing_consistency_all_builtins(self, trunc):
        # crossing the wall must reproduce the exact Chekanov expansion
        for spec in BUILTIN_FANO:
            w = clifford_superpotential(spec, Ambient.COMPACT)
            gd = wall_crossing_factor(spec, trunc=trunc)
            glued = apply_gluing(spec, w.series, gd)
            expected = truncate_gamma(
                chekanov_superpotential(spec, Ambient.COMPACT).series, trunc
            )
            assert glued == expected, f"residual on {spec}"

    def test_reverse_gluing_recovers_clifford(self):
        for spec in BUILTIN_FANO:
            w = chekanov_superpotential(spec, Ambient.COMPACT)
            gd = wall_crossing_factor(spec, Direction.MINUS_TO_PLUS, trunc=16)
            glued = apply_gluing(spec, w.series, gd)
            expected = clifford_superpotential(spec, Ambient.COMPACT).series
            assert glued == truncate_gamma(expected, 16)

    def test_glue_superpotential_flips_chamber(self):
        spec = builtin_fan("cpn", n=3)
        w = clifford_superpotential(spec, Ambient.COMPACT)
        glued = glue_superpotential(w, wall_crossing_factor(spec, trunc=12))
        assert glued.chamber is Chart.CHEKANOV
        assert glued.series == chekanov_superpotential(spec, Ambient.COMPACT).series
        with pytest.raises(errors.BadParams):
            glue_superpotential(glued, wall_crossing_factor(spec, trunc=12))


    def test_bad_factor_raises_only_when_a_negative_power_is_needed(self):
        spec = builtin_fan("cpn", n=2)
        g1 = gamma_class(spec, 1)
        needs_none = monomial(2, 1, beta_prime_class(spec, 1))  # e = +2 forward
        needs_inverse = monomial(2, 1, beta_class(spec, 1))  # e = -1 forward
        bad_factors = [
            (errors.NotInvertible, series.one(2, 1).scaled(2) + monomial(2, 1, g1)),
            (errors.NotFiltered, series.one(2, 1) + monomial(2, 1, RelClass(1, (0,), (0,)))),
            (errors.NotFiltered, series.one(2, 1) + monomial(2, 1, g1) + monomial(2, 1, -g1)),
        ]
        for exc, f in bad_factors:
            gd = GluingData(f, Direction.PLUS_TO_MINUS, 6)
            with pytest.raises(exc):
                apply_gluing(spec, needs_inverse, gd)
            with pytest.raises(exc):
                apply_gluing(spec, needs_none + needs_inverse, gd)
            glued = apply_gluing(spec, needs_none, gd)
            assert glued == series.multiply(needs_none, series.power(f, 2))


    @pytest.mark.parametrize("call, message", [
        (lambda spec, w, gd: apply_gluing(spec, None, gd),
         "series operand must be a ClassSeries, got None"),
        (lambda spec, w, gd: apply_gluing(None, w.series, gd),
         "gluing fan must be a FanSpec, got None"),
        (lambda spec, w, gd: apply_gluing(spec, w.series, None),
         "gluing data must be a GluingData, got None"),
        (lambda spec, w, gd: glue_superpotential(None, gd),
         "glued superpotential must be a Superpotential, got None"),
        (lambda spec, w, gd: glue_superpotential(w, gd.factor),
         "gluing data must be a GluingData, got <ClassSeries"),
        (lambda spec, w, gd: invariant_table(None),
         "invariant table source must be a Superpotential, got None"),
        (lambda spec, w, gd: invariant_table(w.series),
         "invariant table source must be a Superpotential, got <ClassSeries"),
        (lambda spec, w, gd: evaluate(None, assign_energies(spec, {"beta_hat": 1, "gamma": [1],
                                                                   "H": [4]}), [t_monomial(1)] * 2),
         "series operand must be a ClassSeries, got None"),
        (lambda spec, w, gd: evaluate(w.series, None, [t_monomial(1)] * 2),
         "energy assignment must be an EnergyAssignment, got None"),
        (lambda spec, w, gd: evaluate_chekanov(None, [t_monomial(1)] * 2),
         "energy assignment must be an EnergyAssignment, got None"),
    ], ids=["apply-series", "apply-fan", "apply-data", "glue-superpotential", "glue-data",
            "table", "table-series", "evaluate", "evaluate-energies", "evaluate-chekanov"])
    def test_entry_points_refuse_a_wrong_argument(self, call, message):
        # each ended in a raw AttributeError: no attribute 'n', 'chamber',
        # 'fan', 'factor', 'direction', 'items' or 'fan' on the wrong argument
        spec = builtin_fan("cpn", n=2)
        w = clifford_superpotential(spec, Ambient.COMPACT)
        with pytest.raises(errors.BadParams) as exc:
            call(spec, w, wall_crossing_factor(spec))
        assert str(exc.value).startswith(message)

    def test_superpotential_is_checked_when_built(self):
        # series=None was accepted, and invariant_table of it ended in a raw
        # AttributeError on .columns
        spec = builtin_fan("cpn", n=2)
        s = clifford_superpotential(spec, Ambient.OPEN).series
        cases = [
            ((None, s, Chart.CLIFFORD, Ambient.OPEN), "superpotential fan must be a FanSpec, got None"),
            ((spec, None, Chart.CLIFFORD, Ambient.OPEN),
             "series operand must be a ClassSeries, got None"),
            ((spec, s, "plus", Ambient.OPEN), "superpotential chamber must be a Chart, got 'plus'"),
            ((spec, s, Chart.CLIFFORD, "open"),
             "superpotential ambient must be an Ambient, got 'open'"),
        ]
        for args, message in cases:
            with pytest.raises(errors.BadParams) as exc:
                wallcross.Superpotential(*args)
            assert str(exc.value) == message
        with pytest.raises(errors.BadParams):
            invariant_table(wallcross.Superpotential(spec, None, Chart.CLIFFORD, Ambient.OPEN))
        w = wallcross.Superpotential(spec, s, Chart.CLIFFORD, Ambient.OPEN)
        assert w == clifford_superpotential(spec, Ambient.OPEN)

    def test_gluing_data_is_checked_when_built(self):
        # factor=None ended in a raw AttributeError from apply_gluing,
        # direction "plus" glued minus-to-plus, and trunc=-3 was accepted
        # whenever no negative power was needed
        f = wall_crossing_factor(builtin_fan("cpn", n=2)).factor
        cases = [
            ((None, Direction.PLUS_TO_MINUS, 4), "series operand must be a ClassSeries, got None"),
            ((f, "plus", 4), "gluing direction must be a Direction, got 'plus'"),
            ((f, Direction.MINUS_TO_PLUS, -3), "truncation bound must be >= 0, got -3"),
            ((f, Direction.MINUS_TO_PLUS, 2.5), "truncation bound must be an integer"),
        ]
        for args, message in cases:
            with pytest.raises(errors.BadParams, match=message.replace("(", r"\(")):
                GluingData(*args)
        assert GluingData(f, Direction.MINUS_TO_PLUS, 0).trunc == 0

    @pytest.mark.parametrize("spec", [
        *(builtin_fan("cpn", n=n) for n in range(1, 9)),
        builtin_fan("cp_product", n=2, r=1),
        builtin_fan("hirzebruch_f1"),
        builtin_fan("cp_product", n=5, r=2),
    ], ids=lambda spec: f"n{spec.n}-{spec.extra_rays}")
    def test_factor_is_built_packed(self, monkeypatch, spec):
        # 1 + sum_k gamma_k goes straight onto a packer: no RelClass, no
        # ClassSeries constructor, and the series the constructor would build
        counts = {"class": 0, "series": 0}
        _count_inits(monkeypatch, RelClass, counts, "class")
        _count_inits(monkeypatch, ClassSeries, counts, "series")
        f = wall_crossing_factor(spec).factor
        monkeypatch.undo()
        assert counts == {"class": 0, "series": 0}
        terms = {RelClass(0, (0,) * (spec.n - 1), (0,) * spec.m): F(1)}
        terms.update((gamma_class(spec, k), F(1)) for k in range(1, spec.n))
        built = ClassSeries(spec.n, spec.m, terms)
        assert f == built and hash(f) == hash(built) and repr(f) == repr(built)

    def test_coinciding_keys_of_power_groups_are_summed(self):
        # f = 1 + beta_hat has no graded unit tail, so every e > 0 takes
        # square-and-multiply; beta_hat * f and 2 beta_hat * f**2 share the
        # classes 2 beta_hat and 3 beta_hat, which must be added
        spec = builtin_fan("cpn", n=2)
        beta_hat = beta_hat_class(spec)
        f = series.one(2, 1) + monomial(2, 1, beta_hat)
        a, b = monomial(2, 1, beta_hat, F(3)), monomial(2, 1, beta_hat.scale(2), F(-1, 2))
        gd = GluingData(f, Direction.MINUS_TO_PLUS, 0)
        glued = apply_gluing(spec, a + b, gd)
        expected = series.multiply(a, series.power(f, 1)) + series.multiply(b, series.power(f, 2))
        assert glued == expected
        assert [glued.coeff(beta_hat.scale(k)) for k in (1, 2, 3, 4)] == [3, F(5, 2), -1, F(-1, 2)]

    @pytest.mark.parametrize("trunc", [0, 2, 5])
    def test_coinciding_keys_of_all_groups_are_summed(self, trunc):
        # f = 1 + (beta_hat + gamma_1) has a graded unit tail that moves b,
        # so the quotients of the e = -2 and e = -1 groups, the e = 0 term
        # and the products of the e = 1 group share classes: every group's
        # part is added, as the sum of the kernel entries one per group is
        spec = builtin_fan("cpn", n=2)
        f = series.one(2, 1) + monomial(2, 1, RelClass(1, (1,), (0,)))
        groups = {
            -2: monomial(2, 1, RelClass(-2, (0,), (0,)), F(3)),
            -1: monomial(2, 1, RelClass(-1, (1,), (0,)), F(-1, 2)),
            0: monomial(2, 1, RelClass(0, (2,), (0,)), F(5)),
            1: monomial(2, 1, RelClass(1, (0,), (0,)), F(2, 3)),
        }
        glued = apply_gluing(spec, sum(groups.values(), series.zero(2, 1)),
                             GluingData(f, Direction.MINUS_TO_PLUS, trunc))
        parts = [series.divide_by_power(p, f, -e, trunc) if e < 0
                 else series.times_powers([(p, e)], f) for e, p in groups.items()]
        assert glued == truncate_gamma(sum(parts, series.zero(2, 1)), trunc)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("trunc", [0, 3, 7])
    def test_several_negative_powers_match_reference(self, direction, trunc):
        # groups e = -1, -2, -3 (and +1, +2 the other way) whose quotients
        # share classes, plus an e = 0 term; every group is summed on one
        # packer and truncated once
        spec = builtin_fan("cpn", n=3)
        s = ClassSeries(3, 1, {
            RelClass(1, (0, 0), (0,)): F(2),
            RelClass(2, (1, 0), (0,)): F(-1, 3),
            RelClass(3, (0, 2), (1,)): F(5),
            RelClass(3, (1, 1), (1,)): F(1, 2),
            RelClass(-1, (0, 1), (0,)): F(1),
            RelClass(-2, (2, 0), (1,)): F(-7, 2),
            RelClass(0, (1, 1), (0,)): F(4),
        })
        gd = wall_crossing_factor(spec, direction, trunc)
        assert apply_gluing(spec, s, gd) == reference_gluing(spec, s, direction, trunc)


def _binom(e, j):
    """Generalized binomial coefficient e choose j, any integer e."""
    out = Fraction(1)
    for i in range(j):
        out = out * (e - i) / (i + 1)
    return out


def reference_gluing(spec, s, direction, trunc):
    """Independent oracle: f^e = sum_a binom(e, |a|) multinomial(a) gamma^a,
    expanded term by term far enough (trunc + the source's own
    gamma-degree) for every output class of gamma-degree <= trunc."""
    sign = -1 if direction is Direction.PLUS_TO_MINUS else 1
    out = {}
    needs_inverse = False
    for cls, q in s.items():
        e = sign * cls.b
        needs_inverse |= e < 0
        depth = trunc + cls.gamma_degree if e < 0 else e
        for a in itertools.product(range(depth + 1), repeat=spec.n - 1):
            if sum(a) > depth:
                continue
            multinomial = math.factorial(sum(a)) // math.prod(math.factorial(x) for x in a)
            coeff = q * _binom(e, sum(a)) * multinomial
            key = cls
            for k, ak in enumerate(a, start=1):
                key = key + gamma_class(spec, k).scale(ak)
            out[key] = out.get(key, 0) + coeff
    if needs_inverse:
        out = {c: q for c, q in out.items() if c.gamma_degree <= trunc}
    return ClassSeries(spec.n, spec.m, out)


def signed_class_series(n, m, max_terms=4, g_min=0):
    classes = st.builds(
        RelClass,
        st.integers(min_value=-3, max_value=3),
        st.tuples(*[st.integers(min_value=g_min, max_value=3)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-1, max_value=2)] * m),
    )
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return st.dictionaries(classes, coeffs, max_size=max_terms).map(
        lambda d: ClassSeries(n, m, d)
    )


@given(signed_class_series(3, 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=60)
def test_round_trip_is_identity(s, trunc):
    # nonnegative gamma-offsets keep the degree filtration monotone, so
    # gluing there and back is the identity below the truncation bound
    spec = builtin_fan("cpn", n=3)
    fwd = apply_gluing(spec, s, wall_crossing_factor(spec, Direction.PLUS_TO_MINUS, trunc))
    back = apply_gluing(spec, fwd, wall_crossing_factor(spec, Direction.MINUS_TO_PLUS, trunc))
    assert truncate_gamma(back, trunc) == truncate_gamma(s, trunc)


GLUING_FANS = [builtin_fan("cpn", n=2), builtin_fan("cpn", n=3), builtin_fan("cp_product", n=3, r=1)]


@given(
    st.data(),
    st.sampled_from(GLUING_FANS),
    st.sampled_from(list(Direction)),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=80)
def test_gluing_matches_binomial_reference(data, spec, direction, trunc):
    # negative gamma-offsets included: those are where a source term pulls
    # factor terms of degree above trunc back under the output bound
    s = data.draw(signed_class_series(spec.n, spec.m, g_min=-2), label="s")
    gd = wall_crossing_factor(spec, direction, trunc)
    assert apply_gluing(spec, s, gd) == reference_gluing(spec, s, direction, trunc)



def _held_both_ways(s):
    # the same terms from the constructor's dict and parsed by from_records
    held = ClassSeries(s.n, s.m, dict(s.items()))
    packed = series.from_records(s.n, s.m, series.to_records(s))
    return held, packed


def _glue_both_ways(spec, s, direction, trunc):
    # apply_gluing of s built both ways, which must agree
    gd = wall_crossing_factor(spec, direction, trunc)
    held, packed = (apply_gluing(spec, x, gd) for x in _held_both_ways(s))
    assert held == packed
    return packed


OPPOSITE = {Direction.PLUS_TO_MINUS: Direction.MINUS_TO_PLUS,
            Direction.MINUS_TO_PLUS: Direction.PLUS_TO_MINUS}


@pytest.mark.parametrize("trunc", [4, 8, 16])
@pytest.mark.parametrize("spec", BUILTIN_FANO, ids=lambda spec: f"n{spec.n}-{spec.extra_rays}")
def test_gluing_packed_matches_dict(spec, trunc):
    # apply_gluing reads a series' keys without a class per term; the
    # same series built from a dict and parsed from records must glue to
    # the same result both ways.  The Chekanov side divides exactly, so
    # its round trip returns the source below trunc; the Clifford side's
    # first leg truncates
    for make, direction in ((clifford_superpotential, Direction.PLUS_TO_MINUS),
                            (chekanov_superpotential, Direction.MINUS_TO_PLUS)):
        s = make(spec, Ambient.COMPACT).series
        there = _glue_both_ways(spec, s, direction, trunc)
        back = _glue_both_ways(spec, there, OPPOSITE[direction], trunc)
        if make is chekanov_superpotential:
            assert there == clifford_superpotential(spec, Ambient.COMPACT).series
            assert truncate_gamma(back, trunc) == truncate_gamma(s, trunc)
        else:
            assert there == truncate_gamma(chekanov_superpotential(spec, Ambient.COMPACT).series, trunc)


@given(signed_class_series(3, 1), st.integers(min_value=2, max_value=8))
@settings(max_examples=60, derandomize=True)
def test_packed_round_trip_matches_dict(s, trunc):
    # seeded signed CP^3 inputs: built and parsed sources glue alike in
    # both directions, and the round trip is the identity below trunc
    spec = builtin_fan("cpn", n=3)
    for direction in Direction:
        there = _glue_both_ways(spec, s, direction, trunc)
        back = _glue_both_ways(spec, there, OPPOSITE[direction], trunc)
        assert truncate_gamma(back, trunc) == truncate_gamma(s, trunc)


class TestInvariantTables:
    def test_cp2_table(self):
        w = chekanov_superpotential(builtin_fan("cpn", n=2), Ambient.COMPACT)
        table = invariant_table(w)
        assert [(row.name, row.value) for row in table] == [
            ("β̂", 1),
            ("H_1 - 2β̂ - γ_1", 1),
            ("H_1 - 2β̂", 2),
            ("H_1 - 2β̂ + γ_1", 1),
        ]
        assert all(row.maslov == 2 for row in table)

    def test_open_table_single_row(self):
        w = chekanov_superpotential(FanSpec(3, ()), Ambient.OPEN)
        table = invariant_table(w)
        assert len(table) == 1
        assert table.rows[0].value == 1 and table.rows[0].maslov == 2

    def test_cp3_table(self):
        w = chekanov_superpotential(builtin_fan("cpn", n=3), Ambient.COMPACT)
        table = invariant_table(w)
        assert len(table) == 11
        values = {row.cls: row.value for row in table}
        spec = builtin_fan("cpn", n=3)
        assert values[beta_hat_class(spec)] == 1
        expected = {
            (-1, -1): 1, (-1, 0): 3, (-1, 1): 3, (-1, 2): 1,
            (0, -1): 3, (0, 0): 6, (0, 1): 3,
            (1, -1): 3, (1, 0): 3,
            (2, -1): 1,
        }
        for k, v in expected.items():
            assert values[RelClass(-3, k, (1,))] == v

    def test_cp1xcp1_all_ones(self):
        w = chekanov_superpotential(builtin_fan("cp_product", n=2, r=1), Ambient.COMPACT)
        table = invariant_table(w)
        assert len(table) == 5
        assert all(row.value == 1 for row in table)

    def test_f1_table(self):
        w = chekanov_superpotential(builtin_fan("hirzebruch_f1"), Ambient.COMPACT)
        table = invariant_table(w)
        values = {row.cls: row.value for row in table}
        # the five headline classes
        assert values[RelClass(1, (0,), (0, 0))] == 1
        assert values[RelClass(-2, (-1,), (1, 0))] == 1
        assert values[RelClass(-2, (0,), (1, 0))] == 2
        assert values[RelClass(-2, (1,), (1, 0))] == 1
        assert values[RelClass(-1, (0,), (0, 1))] == 1
        # plus the dressed second-ray disk forced by gluing consistency
        assert values[RelClass(-1, (1,), (0, 1))] == 1
        assert len(table) == 6

    def test_rows_are_canonically_sorted(self):
        w = chekanov_superpotential(builtin_fan("cpn", n=4), Ambient.COMPACT)
        table = invariant_table(w)
        keys = [row.cls.sort_key for row in table]
        assert keys == sorted(keys)

    def test_maslov_violation(self):
        spec = builtin_fan("cpn", n=2)
        bad = wallcross.Superpotential(
            spec, monomial(2, 1, RelClass(2, (0,), (0,))), Chart.CHEKANOV, Ambient.COMPACT
        )
        with pytest.raises(errors.MaslovViolation):
            invariant_table(bad)

    def test_non_integer_count(self):
        spec = builtin_fan("cpn", n=2)
        bad = wallcross.Superpotential(
            spec,
            monomial(2, 1, RelClass(1, (0,), (0,)), F(1, 2)),
            Chart.CHEKANOV,
            Ambient.COMPACT,
        )
        with pytest.raises(errors.NonIntegerInvariant):
            invariant_table(bad)


    def test_series_shape_differs_from_fan(self):
        # a series of shape (3, 1) read against the CP^2 fan: the first
        # class fails the shape check with class_maslov's message
        spec = builtin_fan("cpn", n=2)
        s = ClassSeries(3, 1, {RelClass(1, (0, 0), (0,)): F(1), RelClass(-3, (1, 0), (1,)): F(2)})
        bad = wallcross.Superpotential(spec, s, Chart.CHEKANOV, Ambient.COMPACT)
        with pytest.raises(errors.DimensionMismatch) as exc:
            invariant_table(bad)
        assert str(exc.value) == "class shape (2, 1) does not match fan (1, 1)"

    def test_empty_series_of_another_shape_is_an_empty_table(self):
        spec = builtin_fan("cpn", n=2)
        for n, m in ((3, 1), (2, 0), (1, 2)):
            w = wallcross.Superpotential(spec, ClassSeries(n, m), Chart.CHEKANOV, Ambient.COMPACT)
            assert len(invariant_table(w)) == 0

    def test_maslov_violation_comes_before_a_non_integer_count(self):
        spec = builtin_fan("cpn", n=2)

        def table(terms):
            s = ClassSeries(2, 1, terms)
            w = wallcross.Superpotential(spec, s, Chart.CHEKANOV, Ambient.COMPACT)
            return invariant_table(w)

        # one class with both faults: the Maslov index is reported
        with pytest.raises(errors.MaslovViolation) as exc:
            table({RelClass(2, (1,), (0,)): F(1, 2)})
        assert str(exc.value) == "class 2β̂ + γ_1 has Maslov index 4, expected 2"
        with pytest.raises(errors.NonIntegerInvariant) as exc:
            table({RelClass(-2, (1,), (1,)): F(-3, 2)})
        assert str(exc.value) == "count for H_1 - 2β̂ + γ_1 is -3/2, not an integer"
        # across rows, the first faulty row in canonical order is reported
        with pytest.raises(errors.NonIntegerInvariant):
            table({RelClass(1, (0,), (0,)): F(1, 3), RelClass(0, (0,), (1,)): F(1)})
        with pytest.raises(errors.MaslovViolation):
            table({RelClass(1, (0,), (0,)): F(1), RelClass(0, (0,), (0,)): F(1, 3)})


def _reference_table(w):
    # the per-row reading of a table: one class at a time, checked Maslov
    # index, integrality, and class_name
    rows = []
    for cls, coeff in w.series.items():
        mu = class_maslov(w.fan, cls)
        if mu != 2:
            raise errors.MaslovViolation(
                f"class {class_name(cls)} has Maslov index {mu}, expected 2")
        if coeff.denominator != 1:
            raise errors.NonIntegerInvariant(
                f"count for {class_name(cls)} is {coeff}, not an integer")
        rows.append(wallcross.InvariantRow(cls, mu, coeff, class_name(cls)))
    return rows


def _table_outcome(read, w):
    try:
        return list(read(w))
    except errors.DomainError as exc:
        return type(exc), str(exc)


TABLE_FANS = [builtin_fan("cpn", n=n) for n in range(1, 7)] + [
    builtin_fan("hirzebruch_f1"), builtin_fan("cp_product", n=2, r=1),
    builtin_fan("cp_product", n=5, r=2),
]


@pytest.mark.parametrize("ambient", list(Ambient), ids=str)
@pytest.mark.parametrize("make", [clifford_superpotential, chekanov_superpotential],
                         ids=["clifford", "chekanov"])
@pytest.mark.parametrize("spec", TABLE_FANS, ids=lambda s: f"n{s.n}r{s.extra_rays}")
def test_table_matches_per_row_reading(spec, make, ambient):
    got = invariant_table(make(spec, ambient))
    want = _reference_table(make(spec, ambient))
    assert list(got) == want
    assert len(got) == len(want) and got.rows == tuple(want)
    for row in want:
        assert got.value_of(row.cls) == row.value
    # a table built from the same rows is equal and holds the same columns
    built = wallcross.InvariantTable(want)
    assert built == got and built.columns() == got.columns()


def test_cp8_names_and_maslov_column():
    # every CP^8 name is class_name of its class, the beta_hat row's too (the
    # one row whose first coordinate h_1 is 0), and the Maslov column summed
    # column by column is class_maslov row by row
    spec = builtin_fan("cpn", n=8)
    rows = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT)).rows
    assert len(rows) == 6436
    assert [row.name for row in rows] == [class_name(row.cls) for row in rows]
    assert [row.maslov for row in rows] == [class_maslov(spec, row.cls) for row in rows]
    assert [row.name for row in rows if row.cls.h[0] == 0] == ["β̂"]


def test_table_rows_need_one_shape():
    # a table is one int column per coordinate, so rows of two class
    # shapes are refused; zip cut the longer class short, and the row of
    # beta_hat + gamma_2 read back as the class beta_hat
    rows = [wallcross.InvariantRow(RelClass(1, (0,), ()), 2, F(1), "β̂"),
            wallcross.InvariantRow(RelClass(1, (0, 1), ()), 2, F(3), "β̂ + γ_2")]
    with pytest.raises(errors.DimensionMismatch) as exc:
        wallcross.InvariantTable(rows)
    assert str(exc.value) == "invariant rows mix class shapes [(1, 0), (2, 0)]"


def _count_inits(monkeypatch, cls, counts, key):
    # counts[key] += 1 on every cls.__init__ until monkeypatch.undo()
    init = cls.__init__

    def counted(*args, **kwargs):
        counts[key] += 1
        return init(*args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)


def test_value_of_reads_the_columns(monkeypatch):
    # value_of matches a class against the CP^8 table's digit columns and
    # agrees with series.coeff, on the table and off it, with no
    # InvariantRow built (6,436 when its first call built every row)
    spec = builtin_fan("cpn", n=8)
    s = chekanov_superpotential(spec, Ambient.COMPACT).series
    table = invariant_table(wallcross.Superpotential(spec, s, Chart.CHEKANOV, Ambient.COMPACT))
    on = [cls for cls, _ in s.items()[::97]]
    off = [RelClass(c.b + 1, c.g, c.h) for c in on[:5]] + [RelClass(0, (0,) * 7, (5,))]
    counts = {"rows": 0}
    _count_inits(monkeypatch, wallcross.InvariantRow, counts, "rows")
    got = [table.value_of(c) for c in on + off]
    other = [table.value_of(RelClass(1, (0,) * 6, (0,)))]
    monkeypatch.undo()
    assert counts["rows"] == 0
    assert got == [s.coeff(c) for c in on + off]
    assert all(got[:len(on)]) and got[len(on):] == [0] * len(off)
    assert other == [0] and all(type(v) is Fraction for v in got + other)
    # a key that is not a class is refused, as by ClassSeries.coeff (it
    # read 0 before)
    for key in ("β̂", 5, None, (1, (0,) * 7, (0,))):
        with pytest.raises(errors.BadParams):
            table.value_of(key)
        with pytest.raises(errors.BadParams):
            s.coeff(key)


def test_table_equality_reads_the_columns(monkeypatch):
    # == and hash compare the tables' columns and agree with comparing their
    # rows, on CP^8 and on hand-built tables, row order included, with no
    # InvariantRow built (every row of both tables on each call when they
    # compared rows)
    spec = builtin_fan("cpn", n=8)
    w = chekanov_superpotential(spec, Ambient.COMPACT)
    big = invariant_table(w)
    rows = big.rows
    hand = tuple(
        wallcross.InvariantRow(RelClass(b, (g, -g), (h,)), 2, Fraction(v), name)
        for b, g, h, v, name in [(1, 0, 0, 1, "β̂"), (0, 1, 1, -3, "x"), (2, -1, 0, 5, "y")]
    )
    tables = [
        big, invariant_table(w), wallcross.InvariantTable(rows),
        wallcross.InvariantTable(rows[1:] + rows[:1]), wallcross.InvariantTable(rows[:-1]),
        wallcross.InvariantTable(hand), wallcross.InvariantTable(hand[::-1]),
        wallcross.InvariantTable(hand[:1] + hand[2:] + hand[1:2]),
        wallcross.InvariantTable(hand[:2] + (wallcross.InvariantRow(
            hand[2].cls, hand[2].maslov, hand[2].value, "z"),)),
        wallcross.InvariantTable(hand[:2] + (wallcross.InvariantRow(
            hand[2].cls, hand[2].maslov, -hand[2].value, hand[2].name),)),
        wallcross.InvariantTable(()),
    ] + [invariant_table(wallcross.Superpotential(spec, series.zero(n, m), Chart.CHEKANOV,
                                                  Ambient.COMPACT))
         for n, m in ((1, 0), (3, 1), (1, 2))]
    read = [a.rows for a in tables]
    want = [[ra == rb for rb in read] for ra in read]
    # equal tables of different builds, in either shape of empty table
    assert want[0][1] and want[0][2] and want[10][11] and want[12][13]
    assert not (want[0][3] or want[5][6] or want[5][8] or want[5][9] or want[0][10])
    counts = {"rows": 0}
    _count_inits(monkeypatch, wallcross.InvariantRow, counts, "rows")
    got = [[a == b for b in tables] for a in tables]
    hashes = [hash(a) for a in tables]
    monkeypatch.undo()
    assert counts["rows"] == 0
    assert got == want
    for ha, row in zip(hashes, want):
        assert all(ha == hb for hb, same in zip(hashes, row) if same)
    assert tables[0] != list(rows) and tables[-1] != ()


def _packed(n, m, terms, k=0):
    # terms as one kernel result, still packed: sum of c * f**k
    f = wall_crossing_factor(FanSpec(n, ((1,) * n,) * m)).factor
    s = series.times_powers([(monomial(n, m, c, q), k) for c, q in terms.items()], f)
    assert s._packed is not None
    return s


@pytest.mark.parametrize("terms, k, error, message", [
    ({RelClass(1, (0,), (0,)): F(1, 2)}, 2, errors.NonIntegerInvariant,
     "count for β̂ is 1/2, not an integer"),
    ({RelClass(2, (0,), (0,)): F(1)}, 1, errors.MaslovViolation,
     "class 2β̂ has Maslov index 4, expected 2"),
    ({RelClass(2, (1,), (0,)): F(1, 2)}, 0, errors.MaslovViolation,
     "class 2β̂ + γ_1 has Maslov index 4, expected 2"),
    ({RelClass(-2, (1,), (1,)): F(-3, 2)}, 0, errors.NonIntegerInvariant,
     "count for H_1 - 2β̂ + γ_1 is -3/2, not an integer"),
    ({RelClass(1, (0,), (0,)): F(1, 3), RelClass(0, (0,), (1,)): F(1)}, 0,
     errors.NonIntegerInvariant, "count for β̂ is 1/3, not an integer"),
    ({RelClass(1, (0,), (0,)): F(1), RelClass(0, (0,), (0,)): F(1, 3)}, 0,
     errors.MaslovViolation, "class 0 has Maslov index 0, expected 2"),
], ids=["half", "maslov", "both", "negative", "integer-first", "maslov-first"])
def test_packed_table_errors(terms, k, error, message):
    # the errors of invariant_table keep their type and message on a
    # packed kernel result, the first faulty row in canonical order first
    spec = builtin_fan("cpn", n=2)

    def w(s):
        return wallcross.Superpotential(spec, s, Chart.CHEKANOV, Ambient.COMPACT)

    with pytest.raises(error) as exc:
        invariant_table(w(_packed(2, 1, terms, k)))
    assert str(exc.value) == message
    assert _table_outcome(_reference_table, w(_packed(2, 1, terms, k))) == (error, message)


def test_gluing_prepares_factor_once(monkeypatch):
    # the gluing heavy op, CP^2 x CP^3 Chekanov -> Clifford at trunc 16, is
    # one packed pass: its e = 1 group and two e < 0 groups share one
    # packer and one check of the factor (3 _orthant calls and 4 packers
    # when each group was its own kernel entry), and the saving is set-up
    # only, with the convolution pairs unchanged
    spec = builtin_fan("cp_product", n=5, r=2)
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    gd = wall_crossing_factor(spec, Direction.MINUS_TO_PLUS, 16)
    counts = {"orthant": 0, "packers": 0, "pairs": 0}

    def counted(key, fn, what=lambda *args: 1):
        def wrapper(*args):
            counts[key] += what(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(series, "_orthant", counted("orthant", series._orthant))
    monkeypatch.setattr(series, "_convolve", counted(
        "pairs", series._convolve, lambda acc, a, b, scale: len(a) * len(b)))
    _count_inits(monkeypatch, series._Packer, counts, "packers")
    glued = apply_gluing(spec, w, gd)
    monkeypatch.undo()
    assert counts == {"orthant": 1, "packers": 1, "pairs": 117}
    assert glued == clifford_superpotential(spec, Ambient.COMPACT).series


def test_gluing_decodes_each_part_once(monkeypatch):
    # the same heavy op splits the source by its b column (1 decode), then
    # decodes each of its three e-groups once: the two e < 0 groups for
    # their grades and their keys on the shared packer, the e = 1 group to
    # move it there (3).  The factor's unit tail is decoded for its orthant
    # and its grades (2), and the glued result for truncate_gamma (1)
    spec = builtin_fan("cp_product", n=5, r=2)
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    gd = wall_crossing_factor(spec, Direction.MINUS_TO_PLUS, 16)
    columns = series._Packer.columns
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return columns(*args, **kwargs)

    monkeypatch.setattr(series._Packer, "columns", counted)
    glued = apply_gluing(spec, w, gd)
    monkeypatch.undo()
    assert calls["n"] == 7
    assert glued == clifford_superpotential(spec, Ambient.COMPACT).series


def test_gluing_grades_each_part_once(monkeypatch):
    # the same heavy op grades the factor's unit tail once and each of the
    # two e < 0 groups once, for its reach and its grade buckets alike (3;
    # 5 when _graded graded those groups a second time)
    spec = builtin_fan("cp_product", n=5, r=2)
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    gd = wall_crossing_factor(spec, Direction.MINUS_TO_PLUS, 16)
    grades = series._grades
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return grades(*args, **kwargs)

    monkeypatch.setattr(series, "_grades", counted)
    glued = apply_gluing(spec, w, gd)
    monkeypatch.undo()
    assert calls["n"] == 3
    assert glued == clifford_superpotential(spec, Ambient.COMPACT).series


@pytest.mark.parametrize("spec, products, classes", [
    (builtin_fan("cpn", n=8), 30459, 2),
    (builtin_fan("hirzebruch_f1"), 8, 3),
    (builtin_fan("cp_product", n=5, r=2), 130, 3),
], ids=["cp8", "f1", "cp2xcp3"])
def test_chekanov_work_count(monkeypatch, spec, products, classes):
    # the compact Chekanov series is one times_powers pass: one packed
    # result besides the factor's (built on packed keys, with no RelClass),
    # no series sum per extra ray, and only the Miller solves' int products:
    # the beta_hat part at k = 0 is added as it is (one product more when
    # it was convolved with f**0 = 1).  It stays packed until read: len
    # counts its terms without a RelClass, the only RelClasses built are
    # the parts', and items() builds one RelClass per term
    counts = {"unpacked": 0, "class": 0, "add": 0, "products": 0}

    def counted(key, fn, what=lambda *args: 1):
        def wrapper(*args):
            counts[key] += what(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(series, "_unpacked", counted("unpacked", series._unpacked))
    _count_inits(monkeypatch, RelClass, counts, "class")
    monkeypatch.setattr(series, "_convolve", counted(
        "products", series._convolve, lambda acc, a, b, scale: len(a) * len(b)))
    monkeypatch.setattr(series.ClassSeries, "__add__", counted("add", series.ClassSeries.__add__))
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    size = len(w)
    assert counts == {"unpacked": 2, "class": classes, "add": 0, "products": products}
    terms = w.items()
    assert counts["class"] - classes == size == len(terms)
    assert w.items() == terms and len(w) == size


def test_packed_operations_build_no_classes(monkeypatch):
    # truncation, sums, differences, scalings and coefficient reads work on
    # the packed keys of the CP^8 Chekanov series: no RelClass is built
    # (truncate_gamma alone built all 6,436 terms' classes when it read
    # the series as a RelClass -> Fraction dict)
    spec = builtin_fan("cpn", n=8)
    w = chekanov_superpotential(spec, Ambient.COMPACT).series
    c = beta_prime_class(spec, 1)
    counts = {"class": 0}
    _count_inits(monkeypatch, RelClass, counts, "class")
    low = truncate_gamma(w, 4)
    twice, nothing, thrice = w + w, w - w, w.scaled(3)
    got = w.coeff(c)
    assert counts["class"] == 0
    monkeypatch.undo()
    assert 0 < len(low) < len(w) and got == 1 and not nothing
    assert twice == thrice - w and len(thrice) == len(w)


class TestClosedForms:
    def test_cpn_examples(self):
        assert closed_form_invariant("cpn", {"n": 3, "k": (0, 0)}) == 6
        assert closed_form_invariant("cpn", {"n": 3, "k": (1, 1)}) == 0
        assert closed_form_invariant("cpn", {"n": 3, "k": (-2, 0)}) == 0
        assert closed_form_invariant("cpn", {"n": 5, "beta_hat": True}) == 1

    def test_product_examples(self):
        assert closed_form_invariant(
            "cp_product", {"n": 2, "r": 1, "branch": "H2", "k": (1,)}
        ) == 1
        assert closed_form_invariant(
            "cp_product", {"n": 2, "r": 1, "branch": "H1", "k": (-1,)}
        ) == 1
        assert closed_form_invariant(
            "cp_product", {"n": 2, "r": 1, "branch": "H1", "k": (1,)}
        ) == 0

    def test_f1_examples(self):
        for k, v in [(-1, 1), (0, 2), (1, 1), (2, 0)]:
            assert closed_form_invariant("f1", {"branch": "H1", "k": k}) == v
        for k, v in [(0, 1), (1, 1), (-1, 0), (2, 0)]:
            assert closed_form_invariant("f1", {"branch": "H2", "k": k}) == v

    def test_unknown_family(self):
        with pytest.raises(errors.UnknownFamily):
            closed_form_invariant("quadric", {"n": 3})

    def test_bad_params(self):
        with pytest.raises(errors.BadParams):
            closed_form_invariant("cpn", {"n": 3, "k": (0,)})
        with pytest.raises(errors.BadParams):
            closed_form_invariant("cpn", {"n": 3, "k": (0, 0), "extra": 1})
        with pytest.raises(errors.BadParams):
            closed_form_invariant("cp_product", {"n": 2, "r": 2, "branch": "H1", "k": (0,)})

    @pytest.mark.parametrize("k", [(0.5, 0), ("1", 0), (True, 0), "10", 7])
    def test_non_integer_k_rejected(self, k):
        # (0.5, 0) used to be read as (0, 0) and ("1", 0) as (1, 0)
        with pytest.raises(errors.BadParams):
            closed_form_invariant("cpn", {"n": 3, "k": k})

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cpn_table_matches_closed_form(self, n):
        spec = builtin_fan("cpn", n=n)
        table = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        for row in table:
            if not any(row.cls.h):
                want = closed_form_invariant("cpn", {"n": n, "beta_hat": True})
            else:
                want = closed_form_invariant("cpn", {"n": n, "k": row.cls.g})
            assert row.value == want
        # and the closed form vanishes off the table
        for k in itertools.product(range(-2, 3), repeat=n - 1):
            cls = RelClass(-n, k, (1,))
            got = closed_form_invariant("cpn", {"n": n, "k": k})
            assert got == table.value_of(cls)

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in range(2, 7) for r in range(1, n)]
    )
    def test_product_table_matches_closed_form(self, n, r):
        spec = builtin_fan("cp_product", n=n, r=r)
        table = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        count = 0
        for row in table:
            if not any(row.cls.h):
                want = F(1)
            else:
                branch = "H1" if row.cls.h[0] else "H2"
                want = closed_form_invariant(
                    "cp_product", {"n": n, "r": r, "branch": branch, "k": row.cls.g}
                )
            assert row.value == want
            count += 1
        assert count == len(table)

    @pytest.mark.parametrize(
        "family, n, r",
        [("cpn", n, None) for n in range(2, 6)]
        + [("cp_product", n, r) for n in range(2, 6) for r in range(1, n)],
    )
    def test_closed_forms_equal_table_on_box(self, family, n, r):
        # every k in [-2, n]^(n-1), on and off the table, for each disk at
        # infinity H_a of class H_a - p_a beta_hat + k.gamma
        if family == "cpn":
            spec = builtin_fan("cpn", n=n)
            branches = [("cpn", {"n": n}, (1,), n)]
        else:
            spec = builtin_fan("cp_product", n=n, r=r)
            branches = [
                ("cp_product", {"n": n, "r": r, "branch": "H1"}, (1, 0), r),
                ("cp_product", {"n": n, "r": r, "branch": "H2"}, (0, 1), n - r),
            ]
        table = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        got = {row.cls: row.value for row in table}
        hit = 0
        for fam, params, h, p in branches:
            for k in itertools.product(range(-2, n + 1), repeat=n - 1):
                want = closed_form_invariant(fam, {**params, "k": k})
                assert want == got.get(RelClass(-p, k, h), 0)
                hit += want != 0
        # the box holds every row at infinity
        assert hit == sum(1 for c in got if any(c.h))

    def test_f1_table_matches_closed_form(self):
        table = invariant_table(
            chekanov_superpotential(builtin_fan("hirzebruch_f1"), Ambient.COMPACT)
        )
        for row in table:
            if not any(row.cls.h):
                want = closed_form_invariant("f1", {"beta_hat": True})
            else:
                branch = "H1" if row.cls.h[0] else "H2"
                want = closed_form_invariant("f1", {"branch": branch, "k": row.cls.g[0]})
            assert row.value == want

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cpn_sphere_class_sum(self, n):
        spec = builtin_fan("cpn", n=n)
        table = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        total = sum(row.value for row in table if any(row.cls.h))
        assert total == n**n

    @pytest.mark.parametrize("n,r", [(2, 1), (4, 1), (5, 2), (6, 3)])
    def test_product_sphere_class_sum(self, n, r):
        spec = builtin_fan("cp_product", n=n, r=r)
        table = invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))
        total = sum(row.value for row in table if any(row.cls.h))
        assert total == n**r + n ** (n - r)


class TestIdentity:
    @pytest.mark.parametrize(
        "call",
        [lambda spec: wall_crossing_factor(spec, trunc=2.5),
         lambda spec: wall_crossing_factor(spec, trunc=True),
         lambda spec: solve_exp_G(spec, "4"),
         lambda spec: wall_cross_rhs(spec, 4.0),
         lambda spec: verify_wall_cross_identity(spec, None)],
    )
    def test_truncation_bound_must_be_int(self, call):
        # trunc=2.5 used to be stored in GluingData as it was
        with pytest.raises(errors.BadParams):
            call(builtin_fan("cpn", n=3))

    @pytest.mark.parametrize(
        "call",
        [lambda f: series.series_exp(f - series.one(f.n, f.m), -1),
         lambda f: series.series_log(f, -1),
         lambda f: series.divide_by_power(f, f, 1, -1),
         lambda f: series._times_exp_neg_log(f, f, -2),
         lambda f: wall_cross_rhs(builtin_fan("cpn", n=3), -1),
         lambda f: verify_wall_cross_identity(FanSpec(2, ()), -1)],
        ids=["exp", "log", "divide", "times-exp-neg-log", "rhs", "verify"],
    )
    def test_negative_truncation_bound_is_refused(self, call):
        # series_log(f, -1) used to return the zero series and
        # verify_wall_cross_identity(C^2, -1) to return False
        f = wall_crossing_factor(builtin_fan("cpn", n=3)).factor
        with pytest.raises(errors.BadParams, match=r"truncation bound must be >= 0, got -[12]$"):
            call(f)
        # truncate_gamma only filters terms, so any bound goes
        assert not truncate_gamma(f, -1) and truncate_gamma(f, 0) == series.one(3, 1)

    def test_log_expansion_n2(self):
        spec = builtin_fan("cpn", n=2)
        g = solve_exp_G(spec, trunc=3)
        x = gamma_class(spec, 1)
        assert g == ClassSeries(
            2, 1, {x: F(1), x.scale(2): F(-1, 2), x.scale(3): F(1, 3)}
        )

    def test_log_n1_is_zero(self):
        assert solve_exp_G(FanSpec(1, ()), trunc=8) == series.zero(1, 0)

    def test_exp_recovers_factor(self):
        spec = builtin_fan("cpn", n=4)
        g = solve_exp_G(spec, trunc=10)
        assert truncate_gamma(series.series_exp(g, 10), 10) == wall_crossing_factor(
            spec
        ).factor
        assert all(cls.gamma_degree >= 1 for cls, _ in g.items())

    @pytest.mark.parametrize("n,trunc", [(1, 4), (2, 12), (3, 10), (5, 8)])
    def test_identity_holds(self, n, trunc):
        assert verify_wall_cross_identity(FanSpec(n, ()), trunc)

    def test_identity_fails_with_wrong_corrections(self):
        spec = FanSpec(2, ())
        bad = [series.one(2, 0).scaled(2), series.one(2, 0)]
        assert not verify_wall_cross_identity(spec, 8, bad)

    def test_basic_disk_count_is_one(self):
        # energy-zero part of the identity pins the basic disk invariant
        spec = FanSpec(4, ())
        rhs = wall_cross_rhs(spec, trunc=10)
        assert rhs.coeff(RelClass(0, (0, 0, 0), ())) == 1
        assert rhs == series.one(4, 0)


def reference_rhs(spec, trunc, n_factors=None):
    # wall_cross_rhs as the composition of the public kernels, one
    # unpacked series per step
    if n_factors is None:
        n_factors = [series.one(spec.n, spec.m)] * spec.n
    if len(n_factors) != spec.n:
        raise errors.BadParams(f"need {spec.n} sphere-correction series")
    f = wall_crossing_factor(spec).factor
    expf = series.series_exp(-series.series_log(f, trunc), trunc)
    bracket = n_factors[spec.n - 1]
    for k in range(1, spec.n):
        slot = monomial(spec.n, spec.m, gamma_class(spec, k))
        bracket = bracket + series.multiply(slot, n_factors[k - 1])
    return truncate_gamma(series.multiply(bracket, expf), trunc)


def random_factors(rng, spec):
    # sphere corrections with b and h coordinates, both gamma signs (so
    # negative L-grades) and rational coefficients
    def term():
        return RelClass(
            rng.randint(-2, 2),
            tuple(rng.randint(-2, 2) for _ in range(spec.n - 1)),
            tuple(rng.randint(-1, 1) for _ in range(spec.m)),
        )

    return [
        ClassSeries(spec.n, spec.m, {
            term(): F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))
        })
        for _ in range(spec.n)
    ]


def _outcome(call):
    try:
        return call()
    except errors.DomainError as exc:
        return type(exc), str(exc)


ORACLE_TRUNCS = [-1, 0, 1, 4, 8]


def _matches_reference(spec, trunc, factors=None):
    # wall_cross_rhs and verify_wall_cross_identity give reference_rhs's
    # result, or raise its error: exactly when the bound is negative
    want = _outcome(lambda: reference_rhs(spec, trunc, factors))
    assert isinstance(want, tuple) == (trunc < 0)
    assert _outcome(lambda: wall_cross_rhs(spec, trunc, factors)) == want
    holds = want if trunc < 0 else want == series.one(spec.n, spec.m)
    assert _outcome(lambda: verify_wall_cross_identity(spec, trunc, factors)) == holds
    return want


class TestOnePassIdentity:
    """wall_cross_rhs against reference_rhs, term for term and error for
    error."""

    @pytest.mark.parametrize("trunc", ORACLE_TRUNCS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_default_corrections(self, n, trunc):
        for spec in (FanSpec(n, ()), builtin_fan("cpn", n=n)):
            _matches_reference(spec, trunc)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("trunc", ORACLE_TRUNCS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_corrections(self, n, trunc, seed):
        spec = builtin_fan("cpn", n=n)
        factors = random_factors(random.Random(1000 * n + seed), spec)
        _matches_reference(spec, trunc, factors)

    @pytest.mark.parametrize("trunc", ORACLE_TRUNCS)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_wrong_correction(self, n, trunc):
        spec = FanSpec(n, ())
        factors = [series.one(n, 0)] * n
        factors[n - 1] = series.one(n, 0).scaled(F(3, 2))
        assert _matches_reference(spec, trunc, factors) != series.one(n, 0)

    @pytest.mark.parametrize(
        "trunc, factors",
        [(4, lambda n: [series.one(n, 1)] * (n + 1)),
         (4, lambda n: [series.one(n, 1)] * (n - 1)),
         (4, lambda n: [series.one(n, 0)] * n),
         (4, lambda n: [series.one(n, 1)] * (n - 1) + [series.one(n + 1, 1)]),
         (4.0, None),
         ("4", None),
         (True, None),
         (2.5, lambda n: [series.one(n, 0)] * n)],
        ids=["long", "short", "shape", "last-shape", "float", "str", "bool", "float-and-shape"],
    )
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_errors_match(self, n, trunc, factors):
        spec = builtin_fan("cpn", n=n)
        args = (spec, trunc, None if factors is None else factors(n))
        want = _outcome(lambda: reference_rhs(*args))
        assert isinstance(want, tuple) and want[0] in (errors.BadParams, errors.DimensionMismatch)
        assert _outcome(lambda: wall_cross_rhs(*args)) == want
        assert _outcome(lambda: verify_wall_cross_identity(*args)) == want


def test_identity_work_count(monkeypatch):
    # one C^6 identity at trunc 12: log f, exp(-log f) and the product with
    # the bracket stay packed, so the only RelClasses built are the
    # factor's six, the constant correction's and the five slots' (14,761
    # classes unpacked when every step unpacked its output)
    counts = {"class": 0}
    _count_inits(monkeypatch, RelClass, counts, "class")
    got = wall_cross_rhs(FanSpec(6, ()), 12)
    assert counts["class"] <= 12, f"{counts['class']} classes built"
    monkeypatch.undo()
    assert got == series.one(6, 0)


def test_bracket_terms_off_the_orthant_meet_in_two_rows():
    # on CP^3, f = 1 + gamma_1 + gamma_2 and the bracket is 2y + x1 + x2
    # with x1 = y / gamma_1 and x2 = y / gamma_2.  Whichever of the two
    # gamma digits is the rows' digit c, one x is off the orthant along it
    # and enters its row at slot 0, so its products with exp(-log f) sit
    # in other rows than the same classes formed from y.  They must be
    # summed: at y the three products 2 - 1 - 1 cancel exactly, and an
    # overwriting read-out of the rows keeps only one of them
    spec, trunc = builtin_fan("cpn", n=3), 6
    y = RelClass(1, (0, 0), (1,))
    factors = [
        monomial(3, 1, RelClass(1, (-2, 0), (1,))),
        monomial(3, 1, RelClass(1, (0, -2), (1,))),
        monomial(3, 1, y, Fraction(2)),
    ]
    want = reference_rhs(spec, trunc, factors)
    got = wall_cross_rhs(spec, trunc, factors)
    assert got == want and got.coeff(y) == 0
    # the same classes from y and from an x that do not cancel
    assert got.coeff(RelClass(1, (1, 0), (1,))) == want.coeff(RelClass(1, (1, 0), (1,))) != 0
    f = wall_crossing_factor(spec).factor
    bracket = factors[2] + monomial(3, 1, RelClass(1, (-1, 0), (1,))) + monomial(
        3, 1, RelClass(1, (0, -1), (1,)))
    unfused = series.multiply(bracket, series.series_exp(-series.series_log(f, trunc), trunc))
    assert series._times_exp_neg_log(bracket, f, trunc) == truncate_gamma(unfused, trunc) == got


ROW_WORK = """
import json
from opengw import FanSpec, series, wall_cross_rhs

counts = {"pairs": 0, "entered": 0, "left": 0}
convolve, enter, leave = series._convolve, series._Rows.enter, series._Rows.leave


def counted_convolve(acc, a, b, scale):
    counts["pairs"] += len(a) * len(b)
    convolve(acc, a, b, scale)


def counted_enter(rows, buckets):
    counts["entered"] += sum(len(nums) for _, nums in buckets.values())
    return enter(rows, buckets)


def counted_leave(rows, buckets):
    den, nums = leave(rows, buckets)
    counts["left"] += len(nums)
    return den, nums


series._convolve = counted_convolve
series._Rows.enter, series._Rows.leave = counted_enter, counted_leave
assert wall_cross_rhs(FanSpec(6, ()), 12) == series.one(6, 0)
print(json.dumps(counts))
"""


def test_identity_row_work_count():
    # one C^6 identity at trunc 12 runs log f, exp(-log f) and the product
    # with the bracket on one row layout: u, 1 and the bracket's six terms
    # enter the rows once and the one term of the result leaves them once
    # (6,188 terms each way and 174,018 int products when only the exp
    # solve ran on rows).  The counts are the same under two string hash
    # seeds, in fresh interpreters
    src = str(Path(series.__file__).resolve().parent.parent)
    counts = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", ROW_WORK], capture_output=True, text=True,
                              env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1] == {"pairs": 136_891, "entered": 12, "left": 1}


def test_identity_product_count(monkeypatch):
    # one C^6 identity at trunc 12 formed 690,326 int products in _convolve
    # with one term per key, 640,458 of them in the exp solve; on rows that
    # solve forms 124,150 row products, and 136,891 in all with the log
    # solve and the product with the bracket on rows too
    products = 0
    convolve = series._convolve

    def counted(acc, a, b, scale):
        nonlocal products
        products += len(a) * len(b)
        convolve(acc, a, b, scale)

    monkeypatch.setattr(series, "_convolve", counted)
    got = wall_cross_rhs(FanSpec(6, ()), 12)
    monkeypatch.undo()
    assert products <= 200_000, f"{products} int products"
    assert got == series.one(6, 0)
