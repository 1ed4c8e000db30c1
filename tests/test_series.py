"""Group-ring series: products, powers, exp, log, truncation, serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opengw import errors, fan, series
from opengw.fan import RelClass


def ctx_cp3():
    spec = fan.builtin_fan("cpn", n=3)
    return spec


def gamma_mono(n, m, k, coeff=1):
    g = tuple(1 if j == k - 1 else 0 for j in range(n - 1))
    return series.monomial(n, m, RelClass(0, g, (0,) * m), Fraction(coeff))


class TestRingOps:
    def test_product_of_binomials(self):
        n, m = 3, 1
        f = series.one(n, m) + gamma_mono(n, m, 1)
        g = series.one(n, m) + gamma_mono(n, m, 2)
        prod = series.multiply(f, g)
        assert prod.coeff(RelClass(0, (1, 1), (0,))) == 1
        assert len(prod) == 4

    def test_square_exact(self):
        n, m = 2, 1
        f = series.one(n, m) + gamma_mono(n, m, 1)
        sq = series.power(f, 2)
        assert [q for _, q in sq.items()] == [1, 2, 1]

    def test_power_zero(self):
        n, m = 2, 1
        f = series.one(n, m) + gamma_mono(n, m, 1, coeff=Fraction(5, 3))
        assert series.power(f, 0) == series.one(n, m)

    def test_geometric_inverse(self):
        n, m = 2, 0
        f = series.one(n, m) + gamma_mono(n, m, 1)
        inv = series.power(f, -1, trunc=4)
        expected = {RelClass(0, (j,), ()): Fraction((-1) ** j) for j in range(5)}
        assert inv == series.ClassSeries(n, m, expected)

    def test_inverse_square(self):
        # (1+x)^-2 = 1 - 2x + 3x^2 - 4x^3 + ...
        n, m = 2, 0
        f = series.one(n, m) + gamma_mono(n, m, 1)
        inv2 = series.power(f, -2, trunc=5)
        for j in range(6):
            assert inv2.coeff(RelClass(0, (j,), ())) == Fraction((-1) ** j * (j + 1))

    def test_not_invertible_without_unit_constant(self):
        n, m = 2, 0
        f = series.one(n, m).scaled(2) + gamma_mono(n, m, 1)
        with pytest.raises(errors.NotInvertible):
            series.power(f, -1, trunc=4)

    def test_inverse_rejects_gamma_degree_zero_tail(self):
        n, m = 2, 1
        f = series.one(n, m) + series.monomial(n, m, RelClass(1, (0,), (0,)))
        with pytest.raises(errors.NotFiltered):
            series.power(f, -1, trunc=4)

    def test_inverse_rejects_mixed_signs(self):
        n, m = 2, 0
        f = (
            series.one(n, m)
            + gamma_mono(n, m, 1)
            + series.monomial(n, m, RelClass(0, (-1,), ()))
        )
        with pytest.raises(errors.NotFiltered):
            series.power(f, -1, trunc=4)

    def test_context_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            series.multiply(series.one(2, 0), series.one(3, 0))


class TestExpLog:
    def test_exp_of_single_gamma(self):
        n, m = 2, 0
        x = gamma_mono(n, m, 1)
        e = series.series_exp(x, trunc=5)
        for j in range(6):
            assert e.coeff(RelClass(0, (j,), ())) == Fraction(1, fact(j))

    def test_log_of_binomial(self):
        n, m = 2, 0
        f = series.one(n, m) + gamma_mono(n, m, 1)
        lg = series.series_log(f, trunc=6)
        assert lg.coeff(RelClass(0, (0,), ())) == 0
        for j in range(1, 7):
            assert lg.coeff(RelClass(0, (j,), ())) == Fraction((-1) ** (j + 1), j)

    def test_exp_rejects_constant(self):
        with pytest.raises(errors.NotFiltered):
            series.series_exp(series.one(2, 0))

    def test_log_needs_unit_constant(self):
        with pytest.raises(errors.NotInvertible):
            series.series_log(gamma_mono(2, 0, 1))

    def test_exp_log_trivial_context(self):
        # n = 1: no gammas at all, exp(0) = 1 and log(1) = 0
        assert series.series_exp(series.zero(1, 1)) == series.one(1, 1)
        assert series.series_log(series.one(1, 1)) == series.zero(1, 1)


def fact(j):
    out = 1
    for i in range(2, j + 1):
        out *= i
    return out


def series_strategy(n, m, max_terms=3, signed=True):
    """Random small series; signed=False keeps gamma support nonnegative
    with every term in gamma-degree >= 1 (the filtered case)."""
    lo = -3 if signed else 0
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    classes = st.builds(
        RelClass,
        st.integers(min_value=-2, max_value=2),
        st.tuples(*[st.integers(min_value=lo, max_value=3)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * m),
    )
    if not signed:
        classes = classes.filter(lambda c: c.gamma_degree >= 1)
    return st.dictionaries(classes, coeffs, max_size=max_terms).map(
        lambda d: series.ClassSeries(n, m, d)
    )


@given(st.data())
def test_ring_laws(data):
    n = data.draw(st.integers(min_value=1, max_value=3), label="n")
    m = data.draw(st.integers(min_value=0, max_value=2), label="m")
    f = data.draw(series_strategy(n, m), label="f")
    g = data.draw(series_strategy(n, m), label="g")
    h = data.draw(series_strategy(n, m), label="h")
    assert series.multiply(f, g) == series.multiply(g, f)
    assert series.multiply(series.multiply(f, g), h) == series.multiply(f, series.multiply(g, h))
    assert series.multiply(f + g, h) == series.multiply(f, h) + series.multiply(g, h)


@given(st.data())
def test_power_additivity(data):
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    f = data.draw(series_strategy(n, 1), label="f")
    a = data.draw(st.integers(min_value=0, max_value=3), label="a")
    b = data.draw(st.integers(min_value=0, max_value=3), label="b")
    assert series.multiply(series.power(f, a), series.power(f, b)) == series.power(f, a + b)


@given(st.data())
@settings(max_examples=60)
def test_negative_power_cancels(data):
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    trunc = data.draw(st.integers(min_value=2, max_value=6), label="trunc")
    body = data.draw(series_strategy(n, 1, signed=False), label="body")
    f = series.one(n, 1) + body
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")
    prod = series.multiply(series.power(f, -k, trunc), series.power(f, k))
    assert series.truncate_gamma(prod, trunc) == series.one(n, 1)


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60)
def test_negative_power_is_binomial_series(a, b, signs, k, trunc):
    # f = 1 + a x + b y with x, y in any one gamma orthant (the negative one
    # included) and carrying beta_hat/H parts: the coefficient of x^i y^j in
    # f^-k is binom(-k, i+j) (i+j choose i) a^i b^j, with
    # binom(-k, d) = (-1)^d binom(k+d-1, d)
    n, m = 3, 1
    x = RelClass(1, (signs[0], 0), (0,))
    y = RelClass(0, (0, signs[1]), (1,))
    f = series.one(n, m) + series.monomial(n, m, x, a) + series.monomial(n, m, y, b)
    want = {}
    for i in range(trunc + 1):
        for j in range(trunc + 1 - i):
            cls = x.scale(i) + y.scale(j)
            d = i + j
            want[cls] = (-1) ** d * math.comb(k + d - 1, d) * math.comb(d, i) * a**i * b**j
    assert series.power(f, -k, trunc) == series.ClassSeries(n, m, want)


@given(st.data())
@settings(max_examples=60)
def test_division_recovers_exact_quotient(data):
    # an exact quotient comes back whole on every class of gamma-degree
    # <= trunc, also for sources with gamma coordinates of either sign
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    trunc = data.draw(st.integers(min_value=0, max_value=6), label="trunc")
    p = data.draw(series_strategy(n, 1), label="p")
    body = data.draw(series_strategy(n, 1, signed=False), label="body")
    f = series.one(n, 1) + body
    k = data.draw(st.integers(min_value=1, max_value=3), label="k")
    q = series.divide_by_power(series.multiply(p, series.power(f, k)), f, k, trunc)
    assert series.truncate_gamma(q, trunc) == series.truncate_gamma(p, trunc)


@given(st.data())
@settings(max_examples=60)
def test_exp_is_homomorphism(data):
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    trunc = 8
    f = data.draw(series_strategy(n, 0, signed=False, max_terms=2), label="f")
    g = data.draw(series_strategy(n, 0, signed=False, max_terms=2), label="g")
    lhs = series.series_exp(f + g, trunc)
    rhs = series.truncate_gamma(
        series.multiply(series.series_exp(f, trunc), series.series_exp(g, trunc)), trunc
    )
    assert series.truncate_gamma(lhs, trunc) == rhs


@given(st.data())
@settings(max_examples=60)
def test_exp_log_inverse(data):
    n = data.draw(st.integers(min_value=2, max_value=3), label="n")
    trunc = 8
    f = data.draw(series_strategy(n, 0, signed=False, max_terms=2), label="f")
    back = series.series_log(series.series_exp(f, trunc), trunc)
    assert back == series.truncate_gamma(f, trunc)
    g = series.one(n, 0) + f
    again = series.series_exp(series.series_log(g, trunc), trunc)
    assert again == series.truncate_gamma(g, trunc)


class TestSerialization:
    def test_round_trip(self):
        n, m = 3, 2
        f = series.ClassSeries(
            n,
            m,
            {
                RelClass(-2, (1, 0), (1, 0)): Fraction(3, 7),
                RelClass(1, (0, 0), (0, 0)): Fraction(-1),
            },
        )
        recs = series.to_records(f)
        assert series.from_records(n, m, recs) == f

    def test_canonical_order_and_determinism(self):
        n, m = 2, 1
        terms = {
            RelClass(0, (2,), (1,)): Fraction(1),
            RelClass(1, (0,), (0,)): Fraction(2),
            RelClass(-1, (1,), (0,)): Fraction(5, 2),
        }
        f = series.ClassSeries(n, m, terms)
        g = series.ClassSeries(n, m, dict(reversed(list(terms.items()))))
        blob1 = json.dumps(series.to_records(f))
        blob2 = json.dumps(series.to_records(g))
        assert blob1 == blob2
        # sorted by (h, b, g)
        keys = [(tuple(r["h"]), r["b"], tuple(r["g"])) for r in series.to_records(f)]
        assert keys == sorted(keys)

    def test_bad_records(self):
        with pytest.raises(errors.SchemaError):
            series.from_records(2, 0, [{"b": 0, "g": [0], "h": [], "coeff_numerator": 1}])
        with pytest.raises(errors.SchemaError):
            series.from_records(
                2,
                0,
                [
                    {
                        "b": 0,
                        "g": [0, 0],
                        "h": [],
                        "coeff_numerator": 1,
                        "coeff_denominator": 1,
                    }
                ],
            )
        with pytest.raises(errors.SchemaError):
            series.from_records(
                2,
                0,
                [
                    {
                        "b": 0,
                        "g": [0],
                        "h": [],
                        "coeff_numerator": 1,
                        "coeff_denominator": 1,
                        "color": "red",
                    }
                ],
            )
