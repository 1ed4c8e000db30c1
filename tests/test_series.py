"""Group-ring series: products, powers, exp, log, truncation, serialization."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opengw import cli, errors, fan, series, wallcross
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
        inv = series.divide_by_power(series.one(n, m), f, 1, 4)
        expected = {RelClass(0, (j,), ()): Fraction((-1) ** j) for j in range(5)}
        assert inv == series.ClassSeries(n, m, expected)

    def test_inverse_square(self):
        # (1+x)^-2 = 1 - 2x + 3x^2 - 4x^3 + ...
        n, m = 2, 0
        f = series.one(n, m) + gamma_mono(n, m, 1)
        inv2 = series.divide_by_power(series.one(n, m), f, 2, 5)
        for j in range(6):
            assert inv2.coeff(RelClass(0, (j,), ())) == Fraction((-1) ** j * (j + 1))

    def test_not_invertible_without_unit_constant(self):
        n, m = 2, 0
        f = series.one(n, m).scaled(2) + gamma_mono(n, m, 1)
        with pytest.raises(errors.NotInvertible):
            series.divide_by_power(series.one(n, m), f, 1, 4)

    def test_inverse_rejects_gamma_degree_zero_tail(self):
        n, m = 2, 1
        f = series.one(n, m) + series.monomial(n, m, RelClass(1, (0,), (0,)))
        with pytest.raises(errors.NotFiltered):
            series.divide_by_power(series.one(n, m), f, 1, 4)

    def test_gamma_degree_zero_term_named_in_canonical_order(self):
        # of several tail terms of gamma-degree 0, the first in canonical
        # order is named, whether f is built from a dict or parsed
        n, m = 2, 1
        held = series.ClassSeries(n, m, {
            RelClass(2, (0,), (0,)): Fraction(1),
            RelClass(0, (0,), (0,)): Fraction(1),
            RelClass(1, (0,), (0,)): Fraction(3),
        })
        packed = series.from_records(n, m, series.to_records(held))
        for f in (held, packed):
            with pytest.raises(errors.NotFiltered) as exc:
                series.divide_by_power(series.one(n, m), f, 1, 4)
            assert str(exc.value) == (
                "negative power: term RelClass(b=1, g=(0,), h=(0,)) has gamma-degree 0")

    def test_inverse_rejects_mixed_signs(self):
        n, m = 2, 0
        f = (
            series.one(n, m)
            + gamma_mono(n, m, 1)
            + series.monomial(n, m, RelClass(0, (-1,), ()))
        )
        with pytest.raises(errors.NotFiltered):
            series.divide_by_power(series.one(n, m), f, 1, 4)

    def test_context_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            series.multiply(series.one(2, 0), series.one(3, 0))

    @pytest.mark.parametrize(
        "terms",
        [{RelClass(0, (1,), ()): 0.1}, {RelClass(0, (1,), ()): True},
         {RelClass(0, (1,), ()): None}, {(0, (1,), ()): 1}],
    )
    def test_constructor_is_strict(self, terms):
        # 0.1 used to be kept as 3602879701896397/2^55, True as 1; a tuple
        # key raised a raw AttributeError
        with pytest.raises(errors.BadParams):
            series.ClassSeries(2, 0, terms)

    @pytest.mark.parametrize("q", [0.1, True, None, "x"])
    def test_scaled_is_strict(self, q):
        with pytest.raises(errors.BadParams):
            gamma_mono(2, 0, 1).scaled(q)

    @pytest.mark.parametrize(
        "call",
        [lambda f: series.power(f, 1.5), lambda f: series.power(f, True),
         lambda f: series.power(f, -1),
         lambda f: series.series_exp(f - series.one(2, 0), "3"),
         lambda f: series.series_log(f, 2.0),
         lambda f: series.divide_by_power(f, f, 1.5, 3),
         lambda f: series.divide_by_power(f, f, 1, None),
         lambda f: series.divide_by_power(f, f, -1, 3),
         lambda f: series.times_powers([(f, 2.0)], f),
         lambda f: series.times_powers([(f, -1)], f),
         lambda f: series.truncate_gamma(f, 1.5)],
        ids=["power-k-float", "power-k-bool", "power-k-negative",
             "exp-trunc-str", "log-trunc-float", "divide-k-float", "divide-trunc-none",
             "divide-k-negative", "times-power-k-float", "times-power-k-negative",
             "truncate-degree-float"],
    )
    def test_integer_arguments_are_strict(self, call):
        # power(f, 1.5) used to raise a raw TypeError, power(f, True) to
        # return f, series_exp(u, "3") and divide_by_power(p, f, 1.5, 3) a
        # raw TypeError
        with pytest.raises(errors.BadParams):
            call(series.one(2, 0) + gamma_mono(2, 0, 1))

    @pytest.mark.parametrize("n, m", [(2.5, 0), (2, 0.0), (True, 0), ("2", 0), (0, 0), (2, -1),
                                      (-1, 2), ("a", 0)])
    def test_shape_is_strict(self, n, m):
        # ClassSeries(2.5, 0, {}) used to be a series of shape (2.5, 0).
        # from_records checks the shape with the constructor's message:
        # from_records(0, 0, []), (-1, 2, []), (2, -1, []) and (True, 0, [])
        # used to give a series of that shape, ("a", 0, []) a raw TypeError
        with pytest.raises(errors.BadParams) as want:
            series.ClassSeries(n, m, {})
        assert str(want.value).startswith(
            ("series n must be an integer, got", "series m must be an integer, got",
             f"series shape needs n >= 1 and m >= 0, got ({n}, {m})"))
        with pytest.raises(errors.BadParams) as got:
            series.from_records(n, m, [])
        assert str(got.value) == str(want.value)

    def test_exact_strings_accepted(self):
        c = RelClass(0, (1,), ())
        assert series.ClassSeries(2, 0, {c: "1/2"}).coeff(c) == Fraction(1, 2)
        assert gamma_mono(2, 0, 1).scaled("0.1").coeff(c) == Fraction(1, 10)
        assert not gamma_mono(2, 0, 1).scaled(0)

    @pytest.mark.parametrize("call, message", [
        (lambda s: s + 1, "series operand must be a ClassSeries, got 1"),
        (lambda s: s - 1, "series operand must be a ClassSeries, got 1"),
        (lambda s: series.multiply(s, 1), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.divide_by_power(1, s, 1, 4),
         "series operand must be a ClassSeries, got 1"),
        (lambda s: s.coeff((0, (1,), ())), "series key must be a RelClass, got (0, (1,), ())"),
        (lambda s: series.multiply(1, s), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.divide_by_power(s, 1, 1, 4),
         "series operand must be a ClassSeries, got 1"),
        (lambda s: series.times_powers([(1, 2)], s), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.times_powers([(s, 2)], 1), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.times_powers([], 1), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.times_powers(None, s),
         "times_powers needs an iterable of (series, exponent) pairs"),
        (lambda s: series.times_powers([(s,)], s),
         "times_powers needs an iterable of (series, exponent) pairs"),
        (lambda s: series.power(1, 2), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.truncate_gamma(1, 2), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.series_exp(1, 3), "series operand must be a ClassSeries, got 1"),
        (lambda s: series.series_log(1, 3), "series operand must be a ClassSeries, got 1"),
    ], ids=["add", "sub", "multiply", "divide", "coeff", "multiply-first", "divide-first",
            "times-power-first", "times-power-base", "times-powers-empty",
            "times-powers-none", "times-powers-short", "power",
            "truncate", "exp", "log"])
    def test_operands_are_strict(self, call, message):
        # each used to end in a raw AttributeError ('int' object has no
        # attribute 'n', '_check_context' or '_packed', 'tuple' object has
        # no attribute 'g'), times_powers(None, s) in a raw TypeError and
        # times_powers([(s,)], s) in a raw ValueError
        with pytest.raises(errors.BadParams) as exc:
            call(series.one(2, 0) + gamma_mono(2, 0, 1))
        assert str(exc.value) == message


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
    inv = series.divide_by_power(series.one(n, 1), f, k, trunc)
    prod = series.multiply(inv, series.power(f, k))
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
    inv = series.divide_by_power(series.one(n, m), f, k, trunc)
    assert inv == series.ClassSeries(n, m, want)


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



# from_records parses into packed keys; these pin it to a RelClass/Fraction
# reference and to its error messages


def _records_reference(n, m, records):
    # the parse as a dict of classes, one RelClass and Fraction per record
    terms = {}
    for r in records:
        c = RelClass(r["b"], tuple(r["g"]), tuple(r["h"]))
        terms[c] = terms.get(c, Fraction(0)) + Fraction(r["coeff_numerator"], r["coeff_denominator"])
    return series.ClassSeries(n, m, {c: q for c, q in terms.items() if q})


def _random_records(rng, n, m):
    # duplicates, sums that cancel, negative and unreduced denominators,
    # ints beyond 2**64, and records that are not plain dicts of lists
    big = [0, 1, -1, 2**64 + 3, -(2**70)]
    size = rng.choice([0, 1, 1, 2, 5, 12])
    classes = [
        (rng.choice(big) if rng.random() < 0.1 else rng.randint(-3, 3),
         [rng.choice(big) if rng.random() < 0.1 else rng.randint(-3, 3) for _ in range(n - 1)],
         [rng.randint(-2, 2) for _ in range(m)])
        for _ in range(max(1, size // 2))
    ]
    records = []
    for _ in range(size):
        b, g, h = rng.choice(classes)
        num = rng.choice([rng.randint(-6, 6), 3**45, -(2**65)])
        den = rng.choice([1, 1, 2, 3, -4, 6, 2**66])
        scale = rng.choice([1, 1, -1, 5])
        rec = {"b": b, "g": list(g), "h": list(h),
               "coeff_numerator": num * scale, "coeff_denominator": den * scale}
        if rng.random() < 0.15:
            rec["g"], rec["h"] = tuple(g), tuple(h)
        records.append(rec)
        if rng.random() < 0.2:
            # a record that cancels every copy of this class so far
            total = sum(Fraction(r["coeff_numerator"], r["coeff_denominator"])
                        for r in records if (r["b"], list(r["g"]), list(r["h"])) == (b, g, h))
            records.append({"coeff_denominator": total.denominator, "b": b, "g": list(g),
                            "h": list(h), "coeff_numerator": -total.numerator})
    return records


@pytest.mark.parametrize("seed", range(60))
def test_from_records_matches_reference(seed, monkeypatch):
    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(0, 3)
    records = _random_records(rng, n, m)
    want = _records_reference(n, m, records)
    built = {"RelClass": 0, "Fraction": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(RelClass, "__init__", counted("RelClass", RelClass.__init__))
        patch.setattr(Fraction, "__new__", counted("Fraction", Fraction.__new__))
        got = series.from_records(n, m, records)
        size = len(got)
    # no class or coefficient is built per record
    assert built == {"RelClass": 0, "Fraction": 0}
    assert size == len(want)
    cols, den, nums = got.columns()
    want_cols, want_den, want_nums = want.columns()
    assert cols == want_cols
    assert [Fraction(v, den) for v in nums] == [Fraction(v, want_den) for v in want_nums]
    assert got == want
    assert series.from_records(n, m, series.to_records(got)) == want


def _record(**fields):
    rec = {"b": 1, "g": [0, 2], "h": [1], "coeff_numerator": 3, "coeff_denominator": 2}
    for key, value in fields.items():
        if value is _DROP:
            del rec[key]
        else:
            rec[key] = value
    return rec


_DROP = object()


@pytest.mark.parametrize("records, message", [
    ([_record(), 7], "series record must be an object, got 7"),
    ([[1, [0, 2], [1], 3, 2]], "series record must be an object, got [1, [0, 2], [1], 3, 2]"),
    (["b"], "series record must be an object, got 'b'"),
    ([None], "series record must be an object, got None"),
    ([_record(w=1)], "unknown series record keys ['w']"),
    ([_record(z=1, a=2)], "unknown series record keys ['a', 'z']"),
    ([_record(b=_DROP)], "bad series record {'g': [0, 2], 'h': [1], 'coeff_numerator': 3, "
                         "'coeff_denominator': 2}: missing key 'b'"),
    ([_record(g=_DROP)], "bad series record {'b': 1, 'h': [1], 'coeff_numerator': 3, "
                         "'coeff_denominator': 2}: missing key 'g'"),
    ([_record(h=_DROP)], "bad series record {'b': 1, 'g': [0, 2], 'coeff_numerator': 3, "
                         "'coeff_denominator': 2}: missing key 'h'"),
    ([_record(coeff_numerator=_DROP)], "bad series record {'b': 1, 'g': [0, 2], 'h': [1], "
                                       "'coeff_denominator': 2}: missing key 'coeff_numerator'"),
    ([_record(coeff_denominator=_DROP)], "bad series record {'b': 1, 'g': [0, 2], 'h': [1], "
                                         "'coeff_numerator': 3}: missing key 'coeff_denominator'"),
    ([_record(b=True)], "series record b must be an integer, got True"),
    ([_record(b=1.0)], "series record b must be an integer, got 1.0"),
    ([_record(b="1")], "series record b must be an integer, got '1'"),
    ([_record(g=[0, False])], "series record g entry must be an integer, got False"),
    ([_record(g=[0.5, 0])], "series record g entry must be an integer, got 0.5"),
    ([_record(g=["1", 0])], "series record g entry must be an integer, got '1'"),
    ([_record(g="12")], "series record g must be a sequence, got '12'"),
    ([_record(g=2)], "series record g must be a sequence, got 2"),
    ([_record(h=[True])], "series record h entry must be an integer, got True"),
    ([_record(h=[1.0])], "series record h entry must be an integer, got 1.0"),
    ([_record(h=["0"])], "series record h entry must be an integer, got '0'"),
    ([_record(h="1")], "series record h must be a sequence, got '1'"),
    ([_record(coeff_numerator=False)], "series record coeff_numerator must be an integer, got False"),
    ([_record(coeff_numerator=3.0)], "series record coeff_numerator must be an integer, got 3.0"),
    ([_record(coeff_numerator="3")], "series record coeff_numerator must be an integer, got '3'"),
    ([_record(coeff_denominator=True)], "series record coeff_denominator must be an integer, got True"),
    ([_record(coeff_denominator=2.0)], "series record coeff_denominator must be an integer, got 2.0"),
    ([_record(coeff_denominator="1/2")],
     "series record coeff_denominator must be an integer, got '1/2'"),
    ([_record(g=[0])], "series record g must have length 2, got [0]"),
    ([_record(g=[0, 1, 2])], "series record g must have length 2, got [0, 1, 2]"),
    ([_record(h=[])], "series record h must have length 1, got []"),
    ([_record(h=[1, 1])], "series record h must have length 1, got [1, 1]"),
    ([_record(coeff_denominator=0)], "bad series record {'b': 1, 'g': [0, 2], 'h': [1], "
                                     "'coeff_numerator': 3, 'coeff_denominator': 0}: "
                                     "coeff_denominator is 0"),
    ([_record(b=1.5, g=_DROP)], "series record b must be an integer, got 1.5"),
    ([_record(b=_DROP, g=[0.5, 0])], "bad series record {'g': [0.5, 0], 'h': [1], "
                                     "'coeff_numerator': 3, 'coeff_denominator': 2}: "
                                     "missing key 'b'"),
    ([_record(h=[True], coeff_denominator=0)], "series record h entry must be an integer, got True"),
    ([_record(b=_DROP, x=0)], "unknown series record keys ['x']"),
    ([_record(), _record(coeff_numerator=_DROP), _record(b=2.5)],
     "bad series record {'b': 1, 'g': [0, 2], 'h': [1], 'coeff_denominator': 2}: "
     "missing key 'coeff_numerator'"),
    ([_record(b=2.5), _record(coeff_numerator=_DROP)], "series record b must be an integer, got 2.5"),
])
def test_from_records_bad_record_messages(records, message):
    # every bad record is a SchemaError with its message byte for byte, the
    # first bad record in input order winning
    with pytest.raises(errors.SchemaError) as exc:
        series.from_records(3, 1, records)
    assert str(exc.value) == message


# independent oracles for the packed kernel


def _dict_mul(a, b, keep=lambda c: True):
    # classes as (b, g, h) tuples; keep filters the product's classes
    out = {}
    for (b1, g1, h1), q1 in a.items():
        for (b2, g2, h2), q2 in b.items():
            c = (b1 + b2, tuple(map(sum, zip(g1, g2))), tuple(map(sum, zip(h1, h2))))
            if keep(c):
                out[c] = out.get(c, 0) + q1 * q2
    return {c: q for c, q in out.items() if q}


def _as_dict(f):
    return {(c.b, c.g, c.h): q for c, q in f.items()}


def _as_series(n, m, d):
    return series.ClassSeries(n, m, {RelClass(*c): q for c, q in d.items()})


@pytest.mark.parametrize("seed", range(40))
def test_multiply_and_power_match_sympy(seed):
    # sympy's sparse polynomial rings see each class shifted into
    # nonnegative exponents, one variable per coordinate (b, g..., h...)
    rings = pytest.importorskip("sympy.polys.rings")
    from sympy.polys.domains import QQ

    rng = random.Random(seed)
    n, m = rng.randint(1, 4), rng.randint(0, 2)
    R, *_ = rings.ring(f"x0:{n + m}", QQ)

    def draw():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            c = RelClass(
                rng.randint(-3, 3),
                tuple(rng.randint(-3, 3) for _ in range(n - 1)),
                tuple(rng.randint(-2, 2) for _ in range(m)),
            )
            terms[c] = Fraction(rng.randint(-7, 7), rng.randint(1, 6))
        return series.ClassSeries(n, m, terms)

    def to_poly(f):
        coords = [(c.b, *c.g, *c.h) for c, _ in f.items()]
        shift = tuple(min(col) for col in zip(*coords)) if coords else (0,) * (n + m)
        poly = R.from_dict(
            {tuple(x - s for x, s in zip(v, shift)): QQ(q.numerator, q.denominator)
             for v, (_, q) in zip(coords, f.items())}
        )
        return poly, shift

    def from_poly(poly, shift):
        terms = {}
        for mon, q in poly.terms():
            v = [x + s for x, s in zip(mon, shift)]
            cls = RelClass(v[0], tuple(v[1:n]), tuple(v[n:]))
            terms[cls] = Fraction(int(q.numerator), int(q.denominator))
        return series.ClassSeries(n, m, terms)

    f, g = draw(), draw()
    (pf, sf), (pg, sg) = to_poly(f), to_poly(g)
    assert series.multiply(f, g) == from_poly(pf * pg, tuple(a + b for a, b in zip(sf, sg)))
    k = rng.randint(0, 4)
    # sympy refuses 0**0; power takes f**0 = 1 for every f
    want = R.one if k == 0 else pf**k
    assert series.power(f, k) == from_poly(want, tuple(k * s for s in sf))


def _repeated_product(f, k, unit):
    out = {unit: Fraction(1)}
    for _ in range(k):
        out = _dict_mul(out, f)
    return out


@pytest.mark.parametrize("seed", range(60))
def test_power_and_times_power_match_repeated_products(seed):
    # f = 1 + u with u in one gamma orthant goes through Miller's
    # recurrence; f with constant 2, mixed gamma signs or a tail term of
    # gamma-degree 0 through square-and-multiply.  Both must equal k plain
    # dict products, and times_powers([(p, k)], f) must equal p times that, for
    # p with coordinates far beyond k times those of f.
    rng = random.Random(seed)
    n, m, k = 1 + seed % 4, seed % 3, seed % 7
    sign = tuple(rng.choice((1, -1)) for _ in range(n - 1))
    unit = (0, (0,) * (n - 1), (0,) * m)

    def coeff():
        return Fraction(rng.choice((-5, -2, -1, 1, 3, 4)), rng.randint(1, 4))

    def h_part(lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(m))

    u = {}
    for _ in range(rng.randint(0, 4)):
        g = tuple(s * rng.randint(0, 3) for s in sign)
        if any(g):
            u[(rng.randint(-2, 2), g, h_part(-1, 2))] = coeff()
    flat = (0, (0,) * (n - 1), (1,) * m) if m else (1, (0,) * (n - 1), ())
    variants = {
        "graded": {unit: Fraction(1), **u},
        "constant 2": {unit: Fraction(2), **u},
        "gamma-degree 0 tail": {unit: Fraction(1), flat: coeff(), **u},
    }
    if n > 1:
        mixed = (0, (-sign[0],) + (0,) * (n - 2), (0,) * m)
        variants["mixed signs"] = {unit: Fraction(1), mixed: coeff(), **u}
    p = {}
    for _ in range(rng.randint(0, 4)):
        p[(rng.randint(-50, 50), tuple(rng.randint(-3, 3) for _ in range(n - 1)),
           h_part(-40, 40))] = coeff()
    ps = _as_series(n, m, p)
    for name, f in variants.items():
        fs = _as_series(n, m, f)
        want = _as_series(n, m, _repeated_product(f, k, unit))
        assert series.power(fs, k) == want, name
        assert series.times_powers([(ps, k)], fs) == series.multiply(ps, want), name


@pytest.mark.parametrize("f", [
    {(0, (0, 0), (0,)): Fraction(1), (1, (1, 0), (0,)): Fraction(2),
     (0, (0, 1), (1,)): Fraction(-1, 3)},
    {(0, (0, 0), (0,)): Fraction(1), (1, (1, 0), (0,)): Fraction(2),
     (0, (-1, 1), (1,)): Fraction(-1, 3)},
], ids=["graded", "no-graded-tail"])
def test_times_powers_adds_kept_and_powered_parts(f):
    # the k = 0 parts are added as they are, the k > 0 parts through
    # Miller's solve or, for an f whose tail has mixed gamma signs,
    # square-and-multiply.  Keys of every part coincide: the unit class is
    # a term of the k = 0, 1 and 2 parts, the two k = 0 parts cancel on
    # one class and a k = 0 part cancels the k = 1 and 2 parts on another
    n, m = 3, 1
    unit = (0, (0, 0), (0,))
    parts = [
        ({unit: Fraction(3), (1, (1, 0), (0,)): Fraction(-4), (5, (0, 0), (0,)): Fraction(7)}, 0),
        ({(5, (0, 0), (0,)): Fraction(-7), (1, (0, 1), (1,)): Fraction(1, 2)}, 0),
        ({unit: Fraction(1)}, 1),
        ({(-1, (-1, 0), (0,)): Fraction(1, 2), (0, (0, 0), (-1,)): Fraction(4)}, 2),
    ]
    want = {}
    for p, k in parts:
        for c, q in _dict_mul(p, _repeated_product(f, k, unit)).items():
            want[c] = want.get(c, 0) + q
    want = {c: q for c, q in want.items() if q}
    assert (5, (0, 0), (0,)) not in want and (1, (1, 0), (0,)) not in want
    fs = _as_series(n, m, f)
    got = series.times_powers([(_as_series(n, m, p), k) for p, k in parts], fs)
    assert got == _as_series(n, m, want)
    by_products = series.zero(n, m)
    for p, k in parts:
        by_products = by_products + series.multiply(_as_series(n, m, p), series.power(fs, k))
    assert got == by_products
    kept = _as_series(n, m, parts[0][0])
    assert series.times_powers([(kept, 0)], fs) == kept


def test_divide_by_zeroth_power_keeps_grades_up_to_trunc():
    # p / f**0 is p's terms of L-grade <= trunc, L = g_1 - g_2 read off
    # f's gamma orthant: a term of L-grade <= trunc stays whatever its
    # gamma-degree, and f must still have a graded unit tail
    n, m, trunc = 3, 1, 2
    f = series.one(n, m) + gamma_mono(n, m, 1) + _as_series(n, m, {(0, (0, -1), (0,)): 1})
    keep = {
        (1, (1, -1), (0,)): Fraction(2),
        (0, (-2, 0), (1,)): Fraction(-1, 3),
        (0, (4, 2), (0,)): Fraction(5),
        (-3, (1, 1), (2,)): Fraction(1, 2),
    }
    drop = {(0, (3, 0), (0,)): Fraction(7), (2, (0, -3), (-1,)): Fraction(-4)}
    p = _as_series(n, m, {**keep, **drop})
    assert series.divide_by_power(p, f, 0, trunc) == _as_series(n, m, keep)
    assert series.divide_by_power(p, f, 0, 3) == p
    with pytest.raises(errors.NotInvertible, match="negative power"):
        series.divide_by_power(p, f.scaled(2), 0, trunc)


def test_times_powers_and_divide_by_power_prepare_once(monkeypatch):
    # each is one call of the engine: one check of f (one _orthant call)
    # and one packer for the result, however many parts and powers
    n, m = 3, 1
    f = series.one(n, m) + gamma_mono(n, m, 1) + gamma_mono(n, m, 2)
    p = _as_series(n, m, {(1, (0, 0), (0,)): Fraction(2), (-2, (1, 0), (1,)): Fraction(1, 3)})
    q = _as_series(n, m, {(0, (0, 2), (-1,)): Fraction(-5)})
    pq = p + q
    counts = {"orthant": 0, "packers": 0}
    orthant, init = series._orthant, series._Packer.__init__

    def counted_orthant(*args):
        counts["orthant"] += 1
        return orthant(*args)

    def counted_init(self, *args):
        counts["packers"] += 1
        init(self, *args)

    calls = [
        lambda: series.times_powers([(p, 0), (p, 1), (q, 3), (p, 3)], f),
        lambda: series.divide_by_power(pq, f, 2, 6),
    ]
    for call in calls:
        monkeypatch.setattr(series, "_orthant", counted_orthant)
        monkeypatch.setattr(series._Packer, "__init__", counted_init)
        counts.update(orthant=0, packers=0)
        call()
        monkeypatch.undo()
        assert counts == {"orthant": 1, "packers": 1}


def test_zeroth_power_leaves_f_unchecked(monkeypatch):
    # p * f**0 without a trunc adds p as it is: f's unit tail is neither
    # checked nor graded (one _orthant call before)
    n, m = 3, 1
    f = series.one(n, m) + gamma_mono(n, m, 1) + gamma_mono(n, m, 2, Fraction(-2, 3))
    p = _as_series(n, m, {(1, (0, 0), (0,)): Fraction(2), (-2, (1, -4), (1,)): Fraction(1, 3)})
    calls = []
    orthant, graded = series._orthant, series._graded
    monkeypatch.setattr(series, "_orthant", lambda *args: calls.append("_orthant") or orthant(*args))
    monkeypatch.setattr(series, "_graded", lambda *args: calls.append("_graded") or graded(*args))
    got = series.times_powers([(p, 0)], f)
    monkeypatch.undo()
    assert calls == []
    assert got == p and series.to_records(got) == series.to_records(p)
    # f without a graded tail, and not invertible at all, changes nothing
    assert series.times_powers([(p, 0)], f.scaled(2)) == p


def orthant_series(n, m, sign, max_terms=3):
    """Series in one gamma orthant (sign per coordinate), every term of
    gamma-degree >= 1, with beta_hat/H parts and non-unit rational coefficients."""
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    classes = st.builds(
        lambda b, g, h: RelClass(b, tuple(s * x for s, x in zip(sign, g)), h),
        st.integers(min_value=-2, max_value=2),
        st.tuples(*[st.integers(min_value=0, max_value=3)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-1, max_value=2)] * m),
    ).filter(lambda c: c.gamma_degree >= 1)
    return st.dictionaries(classes, coeffs, max_size=max_terms)


@given(st.data())
@settings(max_examples=80)
def test_log_and_exp_match_taylor_sums(data):
    # log(1 + u) = sum (-1)^{j+1} u^j / j and exp(u) = sum u^j / j!, both
    # summed with plain dicts and cut at gamma-degree trunc
    n = data.draw(st.integers(min_value=2, max_value=4), label="n")
    m = data.draw(st.integers(min_value=0, max_value=2), label="m")
    sign = data.draw(st.tuples(*[st.sampled_from((1, -1))] * (n - 1)), label="sign")
    trunc = data.draw(st.integers(min_value=0, max_value=6), label="trunc")
    u = _as_dict(series.ClassSeries(n, m, data.draw(orthant_series(n, m, sign), label="u")))

    def keep(c):
        return sum(abs(x) for x in c[1]) <= trunc

    log_ref, exp_ref = {}, {(0, (0,) * (n - 1), (0,) * m): Fraction(1)}
    upow = dict(exp_ref)
    for j in range(1, trunc + 1):
        upow = _dict_mul(upow, u, keep)
        for c, q in upow.items():
            log_ref[c] = log_ref.get(c, 0) + Fraction((-1) ** (j + 1), j) * q
            exp_ref[c] = exp_ref.get(c, 0) + q / math.factorial(j)
    f = _as_series(n, m, u) + series.one(n, m)
    assert series.series_log(f, trunc) == _as_series(n, m, log_ref)
    assert series.series_exp(_as_series(n, m, u), trunc) == _as_series(n, m, exp_ref)


def _divide_reference(p, u, sign, k, trunc):
    # p / (1 + u)^k on L-grade <= trunc, L = sum sign_k g_k: the geometric
    # series of -u cut at the depth trunc - (lowest grade of p), k times
    def grade(c):
        return sum(s * x for s, x in zip(sign, c[1]))

    src = {c: q for c, q in p.items() if grade(c) <= trunc}
    if not src:
        return {}
    depth = trunc - min(grade(c) for c in src)
    minus_u = {c: -q for c, q in u.items()}
    inv = {(0, (0,) * len(sign), (0,) * len(next(iter(src))[2])): Fraction(1)}
    term = dict(inv)
    for _ in range(depth):
        term = _dict_mul(term, minus_u, lambda c: grade(c) <= depth)
        for c, q in term.items():
            inv[c] = inv.get(c, 0) + q
    out = src
    for _ in range(k):
        out = _dict_mul(out, inv, lambda c: grade(c) <= trunc)
    return out


class TestPackingEdges:
    def test_no_gamma_and_huge_b_h(self):
        # n = 1: keys carry b and h only, with coordinates near 10**6
        big = 10**6
        f = {(big, (), (-big, 3)): Fraction(2, 3), (-big, (), (big, -big)): Fraction(-5)}
        g = {(big - 1, (), (big, big)): Fraction(7), (0, (), (0, 0)): Fraction(1, 2)}
        fs, gs = _as_series(1, 2, f), _as_series(1, 2, g)
        assert series.multiply(fs, gs) == _as_series(1, 2, _dict_mul(f, g))
        cube = _dict_mul(_dict_mul(f, f), f)
        assert series.power(fs, 3) == _as_series(1, 2, cube)
        # n = 1 has no gamma coordinate: exp(0) = 1, log(1) = 0, p / 1 = p
        assert series.series_exp(series.zero(1, 2), 5) == series.one(1, 2)
        assert series.series_log(series.one(1, 2), 5) == series.zero(1, 2)
        assert series.divide_by_power(fs, series.one(1, 2), 2, 0) == fs

    def test_no_h_and_huge_b(self):
        # m = 0 with b near +-10**6 through every kernel
        big = 10**6
        n, m, trunc = 3, 0, 5
        u = {(big, (1, 0), ()): Fraction(3, 2), (-big, (0, 2), ()): Fraction(-1, 3)}
        us = _as_series(n, m, u)
        f = us + series.one(n, m)
        assert series.multiply(us, us) == _as_series(n, m, _dict_mul(u, u))
        p = {(-big, (-1, 0), ()): Fraction(4), (big, (2, 1), ()): Fraction(1, 7)}
        got = series.divide_by_power(_as_series(n, m, p), f, 2, trunc)
        assert got == _as_series(n, m, _divide_reference(p, u, (1, 1), 2, trunc))
        back = series.series_exp(series.series_log(f, trunc), trunc)
        assert back == series.truncate_gamma(f, trunc)

    @pytest.mark.parametrize("sign", [(1, 1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_division_below_zero_and_factor_above_trunc(self, sign, k):
        # a source term of grade -4 reaches grade <= trunc = 3 through a
        # factor term of grade 5 > trunc; such terms must not be dropped
        big = 10**6
        n, m, trunc = 3, 1, 3

        def g(a, b):
            return (sign[0] * a, sign[1] * b)

        u = {
            (1, g(1, 0), (0,)): Fraction(2, 3),
            (-big, g(3, 2), (big,)): Fraction(-5, 2),
            (0, g(0, 1), (1,)): Fraction(1),
        }
        p = {
            (0, g(-4, 0), (0,)): Fraction(3),
            (big, g(-2, -1), (-big,)): Fraction(-1, 4),
            (2, g(1, 1), (0,)): Fraction(1, 5),
        }
        f = _as_series(n, m, u) + series.one(n, m)
        want = _divide_reference(p, u, sign, k, trunc)
        assert (-big, g(-1, 2), (big,)) in want
        assert series.divide_by_power(_as_series(n, m, p), f, k, trunc) == _as_series(n, m, want)

    def test_division_depth_set_by_lowest_source_grade(self):
        # trunc = 0 with a source term at grade -9: nine factor terms of
        # b = 10**6 pile up, far beyond trunc times the factor's coordinates
        big = 10**6
        n, m, trunc = 2, 1, 0
        u = {(big, (1,), (-big,)): Fraction(1, 3)}
        p = {(0, (-9,), (0,)): Fraction(2), (1, (0,), (1,)): Fraction(-1)}
        f = _as_series(n, m, u) + series.one(n, m)
        want = _divide_reference(p, u, (1,), 2, trunc)
        assert (9 * big, (0,), (-9 * big,)) in want
        assert series.divide_by_power(_as_series(n, m, p), f, 2, trunc) == _as_series(n, m, want)


# the exp solve holds its buckets as rows: one int per outer key, one slot
# per step along a second gamma digit, the projected digit rebuilt from
# the grade


def _exp_recurrence(u, zero, sign, trunc):
    # exp(u) on plain dicts by l E_l = sum_j j u_j E_{l-j}, graded by
    # L = sum sign_k g_k up to trunc
    def grade(c):
        return sum(s * x for s, x in zip(sign, c[1]))

    buckets = [{zero: Fraction(1)}]
    for l in range(1, trunc + 1):
        acc = {}
        for j in range(1, l + 1):
            uj = {c: j * q for c, q in u.items() if grade(c) == j}
            for c, q in _dict_mul(uj, buckets[l - j]).items():
                acc[c] = acc.get(c, 0) + q / l
        buckets.append({c: q for c, q in acc.items() if q})
    return {c: q for bucket in buckets for c, q in bucket.items()}


def _zero(n, m):
    return (0, (0,) * (n - 1), (0,) * m)


def row_series(n, m, sign):
    """Orthant series whose b and h digits vary inside a row's outer key,
    some numerators at least 2^80, and optionally a term a + b with
    coefficient -u_a u_b, which cancels exactly in exp."""
    big = st.integers(min_value=2**80, max_value=2**90)
    small = st.integers(min_value=-4, max_value=4).filter(bool)
    num = st.one_of(small, big, big.map(lambda x: -x))
    coeffs = st.builds(Fraction, num, st.integers(min_value=1, max_value=6))
    classes = st.builds(
        lambda b, g, h: (b, tuple(s * x for s, x in zip(sign, g)), h),
        st.integers(min_value=-2, max_value=2),
        st.tuples(*[st.integers(min_value=0, max_value=3)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-1, max_value=2)] * m),
    ).filter(lambda c: any(c[1]))

    def with_cancelling(u, cancel):
        if cancel and len(u) >= 2:
            (a, qa), (b, qb) = list(u.items())[:2]
            u[_dict_mul({a: 1}, {b: 1}).popitem()[0]] = -qa * qb
        return u

    terms = st.dictionaries(classes, coeffs, min_size=1, max_size=4)
    return st.builds(with_cancelling, terms, st.booleans())


@pytest.mark.parametrize(
    "n, sign",
    [(n, sign) for n in (2, 3, 4) for sign in itertools.product((1, -1), repeat=n - 1)],
)
@given(st.data())
@settings(max_examples=15)
def test_exp_rows_match_dict_recurrence(n, sign, data):
    # every gamma orthant, so sigma_c and sigma_d = -1 both occur; n = 2
    # has no second gamma digit and one slot per row
    m = data.draw(st.integers(min_value=0, max_value=2), label="m")
    trunc = data.draw(st.integers(min_value=0, max_value=5), label="trunc")
    u = data.draw(row_series(n, m, sign), label="u")
    want = _exp_recurrence(u, _zero(n, m), sign, trunc)
    assert series.series_exp(_as_series(n, m, u), trunc) == _as_series(n, m, want)
    f = _as_series(n, m, u) + series.one(n, m)
    back = series.series_exp(series.series_log(f, trunc), trunc)
    assert back == series.truncate_gamma(f, trunc)


def test_exp_rows_widen_mid_solve(monkeypatch):
    # numerators near 2^80 fill 64-bit slots at entry; their products
    # outgrow the widened slots during the solve, which repacks every row
    widths = []
    widen = series._Rows._widen

    def spy(self, bound):
        widen(self, bound)
        widths.append(self.width)

    monkeypatch.setattr(series._Rows, "_widen", spy)
    n, m, trunc, sign = 4, 1, 5, (1, -1, 1)
    u = {
        (1, (1, 0, 0), (0,)): Fraction(2**80 + 1, 3),
        (-2, (0, -1, 1), (2,)): Fraction(-(2**85), 5),
        (0, (2, -1, 0), (-1,)): Fraction(7),
    }
    got = series.series_exp(_as_series(n, m, u), trunc)
    # the first two widths are set at entry, for R = 1 and for u
    assert widths[:2] == [64, 128] and widths[-1] > 128
    assert got == _as_series(n, m, _exp_recurrence(u, _zero(n, m), sign, trunc))


def test_exp_rows_widen_for_the_bracket_product(monkeypatch):
    # p and exp(-log f) each fit the 64-bit slots, but p's numerators near
    # 2^58 times E's binomials (norm 2^8 at grade 8) do not: the rows widen
    # once more before the product
    widths = []
    widen = series._Rows._widen

    def spy(self, bound):
        widen(self, bound)
        widths.append(self.width)

    monkeypatch.setattr(series._Rows, "_widen", spy)
    n, m, trunc = 3, 1, 8
    f = series.one(n, m) + gamma_mono(n, m, 1) + gamma_mono(n, m, 2)
    p = series.ClassSeries(n, m, {
        RelClass(0, (0, 0), (0,)): Fraction(2**58),
        RelClass(1, (0, -1), (1,)): Fraction(-(2**58) - 1),
    })
    got = series._times_exp_neg_log(p, f, trunc)
    assert widths[-2:] == [64, 128]
    monkeypatch.undo()
    unfused = series.multiply(p, series.series_exp(-series.series_log(f, trunc), trunc))
    assert got == series.truncate_gamma(unfused, trunc)


@pytest.mark.parametrize("sign", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
def test_exp_rows_exact_cancellation(sign):
    # u = x + y - xy: the xy slot of exp(u) sums to exactly 0, and its row
    # still holds the other classes of that outer key
    n, m, trunc = 3, 1, 4
    x, y = (1, (sign[0], 0), (0,)), (0, (0, sign[1]), (1,))
    xy = (1, (sign[0], sign[1]), (1,))
    u = {x: Fraction(3, 2), y: Fraction(-2, 3), xy: Fraction(1)}
    want = _exp_recurrence(u, _zero(n, m), sign, trunc)
    got = series.series_exp(_as_series(n, m, u), trunc)
    assert got.coeff(RelClass(*xy)) == 0 and xy not in want
    assert got == _as_series(n, m, want)


@pytest.mark.parametrize(
    "sign",
    [(-1, 1), (1, -1), (-1, -1),
     (-1, 1, -1), (1, -1, 1), (-1, -1, 1),
     (-1, 1, -1, 1), (1, -1, -1, 1), (-1, -1, 1, -1)],
)
def test_exp_rows_at_the_grade_bound(sign):
    # f = 1 + sum_k +-gamma_k with unit coordinates in a mixed-sign orthant:
    # at trunc 12 the d digit of an outer key, sigma_d (|x_c| + |x_d|),
    # reaches the grade, near the packer's bound of 12 + 2 bound(p) in the
    # fused solve.  The first two gamma digits are d and c, so sigma_d and
    # sigma_c take every sign pair
    n, m, trunc = len(sign) + 1, 1, 12

    def cls(b, g, h):
        return RelClass(b, tuple(g), (h,))

    unit = [tuple(s if j == k else 0 for j in range(n - 1)) for k, s in enumerate(sign)]
    f = series.one(n, m)
    for k, g in enumerate(unit):
        f = f + series.monomial(n, m, cls(0, g, 0), Fraction((-1) ** k * (k + 2), k + 1))
    assert series.series_exp(series.series_log(f, trunc), trunc) == series.truncate_gamma(f, trunc)
    # p has b and h digits and gamma signs off the orthant of f
    p = series.ClassSeries(n, m, {
        cls(0, (0,) * (n - 1), 0): Fraction(1),
        cls(1, (-sign[0],) + (0,) * (n - 2), 1): Fraction(2),
        cls(-1, sign, -1): Fraction(-1, 3),
    })
    unfused = series.multiply(p, series.series_exp(-series.series_log(f, trunc), trunc))
    assert series._times_exp_neg_log(p, f, trunc) == series.truncate_gamma(unfused, trunc)


# a grade bucket's gcd is certified without reading its slots: g = gcd(den,
# row ints) is a multiple of the slots' gcd, and one masked test per row
# shows the two equal (series._certified); a failed test reads the slots


def _balanced_digits(r, width):
    # the signed width-bit slots of a row, lowest first, read one by one
    out = []
    while r:
        v = r % (1 << width)
        if v >= 1 << (width - 1):
            v -= 1 << width
        out.append(v)
        r = (r - v) >> width
    return out


def _bare_rows(width):
    # a row layout with S = width and no bucket yet: all reduced reads
    rows = series._Rows.__new__(series._Rows)
    rows.width, rows.buckets = width, []
    return rows


def _row(slots, width):
    return sum(v << width * t for t, v in enumerate(slots))


def _scan_reduced(den, acc, width):
    # the reference: every slot read for the gcd, zero rows dropped
    rows = {key: r for key, r in acc.items() if r}
    if not rows:
        return None
    g = math.gcd(den, *(v for r in rows.values() for v in _balanced_digits(r, width)))
    return den // g, {key: r // g for key, r in rows.items()}


def _slot_sum(acc, width):
    return sum(abs(v) for r in acc.values() for v in _balanced_digits(r, width))


def _seeded_buckets(seed):
    # (width, den, acc, bound) with signed slots, zero slots and zero rows,
    # g = 1 and g > 1, and bounds at, above and below the slot sum
    rng = random.Random(seed)
    for width in (64, 128, 192):
        for _ in range(60):
            g = rng.choice([1, 1, 2, 3, 6, 7 * 11, 2**13, 3**20, rng.randrange(1, 2**30)])
            top = rng.choice([3, 1000, 2 ** (width // 3)])
            acc = {}
            for key in rng.sample(range(-50, 50), rng.randint(1, 5)):
                slots = [g * rng.randint(-top, top) * rng.randint(0, 1)
                         for _ in range(rng.randint(1, 6))]
                acc[key] = _row(slots, width)
            den = rng.choice([g, g * rng.randint(1, 40), rng.randint(1, 10**6)])
            total, limit = _slot_sum(acc, width), (1 << (width - 2)) - 1
            if total <= limit:
                for bound in {total, min(limit, total + rng.randint(1, 3 * g)),
                              min(limit, total * rng.randint(2, 2**20)), total // 2, 0}:
                    yield width, den, acc, bound


# gcd(den, rows) above the slots' gcd; g above the bound; a digit past
# 2c after the first mask; one slot equal to the bound
_ADVERSARIAL = [
    # 2^64 = 1 mod 3, so 3 divides 1 + 2 2^64 but not its slots (1, 2)
    (64, 3, {0: _row([1, 2], 64)}, 3),
    (64, 3, {0: _row([1, 2], 64)}, 2**62 - 1),
    (128, 5, {7: _row([1, 4], 128), -7: _row([3, 2], 128)}, 10),
    # den and row share 2^64 - 1 > bound, the row's slots (1, -1) share 1
    (64, 2**64 - 1, {0: (1 - 2**64) << 64}, 2),
    (64, 3 * (2**64 - 1), {1: 3 * (1 - 2**64)}, 6),
    # q = 3 2^60 - 2 passes the first mask, c = 2^60 + 1, and its slot
    # 2^62 - 1 of x is at least 2c: only the second mask refuses it; the
    # bound lies below the slot sum, which costs certificates, never a gcd
    (64, 3, {0: 3 * (3 * 2**60 - 2)}, 3 * 2**60 + 2),
    # a slot equal to the bound: its digit is c - 1
    (64, 5, {0: _row([0, 5 * 7], 64)}, 35),
    (192, 2**70, {0: _row([2**70 * 9, 0, -(2**70) * 3], 192)}, 2**70 * 12),
]


@pytest.mark.parametrize("seed", range(4))
def test_certificate_matches_the_scan(seed, monkeypatch):
    # reduced returns the scan's (den, rows) on every bucket; under the
    # contract (sum |slot| <= bound < 2^(S-2)) its norm bounds the slot sum
    # of its rows, and a candidate gcd equal to the slots' reads no slot
    reads = []

    def counted(r, width):
        reads.append(r)
        return slots(r, width)

    slots = series._slots
    monkeypatch.setattr(series, "_slots", counted)
    cases = list(_seeded_buckets(seed)) + (_ADVERSARIAL if seed == 0 else [])
    certified = 0
    for width, den, acc, bound in cases:
        rows = _bare_rows(width)
        reads.clear()
        got = rows.reduced(den, dict(acc), bound)
        want = _scan_reduced(den, acc, width)
        assert (got and (got[0], dict(got[1]))) == want, (width, den, acc, bound)
        if want is None:
            continue
        total = _slot_sum(acc, width)
        if bound >= total:
            assert got[1].norm >= _slot_sum(got[1], width)
            candidate = math.gcd(den, *acc.values())
            if candidate == den // want[0]:
                assert not reads, (width, den, acc, bound)
                certified += 1
    assert certified > 50


def test_certificate_refuses_a_false_gcd(monkeypatch):
    # each adversarial bucket whose candidate gcd is not the slots' is
    # refused by _certified itself and settled by the scan
    for width, den, acc, bound in _ADVERSARIAL:
        rows = {key: r for key, r in acc.items() if r}
        candidate = math.gcd(den, *rows.values())
        want = _scan_reduced(den, acc, width)
        if candidate != den // want[0]:
            assert series._certified(rows, candidate, bound, width) is None


def _leave_widths(monkeypatch):
    # the S of every leave, in call order
    widths = []
    leave = series._Rows.leave

    def spy(self, buckets):
        widths.append(self.width)
        return leave(self, buckets)

    monkeypatch.setattr(series._Rows, "leave", spy)
    return widths


def _random_orthant_series(rng, n, m, sign, terms, top, dens):
    out = {}
    while len(out) < terms:
        g = tuple(s * rng.randint(0, 2) for s in sign)
        q = Fraction(rng.randint(-top, top), rng.choice(dens))
        if any(g) and q:
            out[RelClass(rng.randint(-2, 2), g, tuple(rng.randint(0, 1) for _ in range(m)))] = q
    return series.ClassSeries(n, m, out)


def _scan_path_inputs():
    # (name, call) pairs on seeded exp, log and identity-chain inputs
    # (the bracket product included), with trunc 16, rational
    # coefficients and a term that cancels in exp
    for seed in range(12):
        rng = random.Random(seed)
        n, m = rng.choice([(3, 1), (4, 1), (4, 2), (5, 0)])
        sign = tuple(rng.choice((1, -1)) for _ in range(n - 1))
        trunc = rng.choice([8, 12, 16])
        dens = rng.choice([(1, 2, 3), (7, 11, 13), (97, 89, 83), (1, 2**20 + 7)])
        top = rng.choice([6, 1000, 2**40])
        u = _random_orthant_series(rng, n, m, sign, rng.randint(2, 4), top, dens)
        (a, qa), (b, qb) = u.items()[:2]
        cancelling = u + series.monomial(n, m, a + b, -qa * qb)
        f = series.one(n, m) + u
        p = series.one(n, m) + _random_orthant_series(
            rng, n, m, tuple(rng.choice((1, -1)) for _ in range(n - 1)), 2, top, dens)
        yield f"exp{seed}", lambda u=u, t=trunc: series.series_exp(u, t)
        yield f"cancel{seed}", lambda u=cancelling, t=trunc: series.series_exp(u, t)
        yield f"explog{seed}", lambda f=f, t=trunc: series.series_exp(series.series_log(f, t), t)
        yield f"bracket{seed}", lambda p=p, f=f, t=trunc: series._times_exp_neg_log(p, f, t)
    for n in (3, 5):
        yield f"rhs{n}", lambda n=n: wallcross.wall_cross_rhs(fan.FanSpec(n, ()), 16)
    # exp(log f) on this f: the norms bounded from fit's sums alone would
    # widen S to 128 where the exact ones keep it at 64
    f = series.one(4, 2) + series.ClassSeries(4, 2, {
        RelClass(2, (-2, 0, -2), (0, 0)): Fraction(-382, 97),
        RelClass(-1, (-2, 0, -1), (0, 1)): Fraction(278, 83),
        RelClass(-1, (0, 0, -2), (0, 1)): Fraction(-905, 97),
        RelClass(0, (0, 2, 0), (0, 1)): Fraction(-865, 97),
    })
    yield "refined", lambda: series.series_exp(series.series_log(f, 8), 8)


@pytest.mark.parametrize("name, call", [pytest.param(*case, id=case[0]) for case in _scan_path_inputs()])
def test_certified_widths_and_outputs_match_the_scan(name, call, monkeypatch):
    # with every certificate failing, reduced runs the slot scan alone and
    # every norm is exact: the same S at every leave and the same result
    widths = _leave_widths(monkeypatch)
    got = call().columns()
    got_widths = list(widths)
    widths.clear()
    monkeypatch.setattr(series, "_certified", lambda *args: None)
    assert call().columns() == got
    assert widths == got_widths
    if name == "refined":
        assert widths == [64]


def test_identity_reduces_without_reading_slots(monkeypatch):
    # C^6 at trunc 12: every grade's gcd is certified, so reduced decodes
    # no row (3,639 before the certificate); leave reads only the product's
    # one nonzero row and skips the 1,819 cancelled ones (1,820 reads when
    # it decoded every row)
    reads, inside = [], []
    slots, reduced = series._slots, series._Rows.reduced

    def counted_slots(r, width):
        reads.append(bool(inside))
        return slots(r, width)

    def counted_reduced(self, *args):
        inside.append(1)
        try:
            return reduced(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(series, "_slots", counted_slots)
    monkeypatch.setattr(series._Rows, "reduced", counted_reduced)
    assert wallcross.verify_wall_cross_identity(fan.FanSpec(6, ()), 12)
    assert reads.count(True) == 0 and reads.count(False) == 1


# packed keys in canonical order: h_1 is the most significant digit, then
# h_2 .. h_m, b, g_1 .. g_{n-1}, all balanced, so int order of keys is the
# (h, b, g) order of RelClass.sort_key


@st.composite
def packed_terms(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    bound = draw(st.sampled_from([0, 1, 2, 3, 7, 8, 100, 255, 256, 10**6]))
    # both ends of [-bound, bound] often, anything in between too
    coord = st.one_of(st.sampled_from([-bound, bound, 0]), st.integers(-bound, bound))
    cls = st.builds(
        RelClass, coord, st.tuples(*[coord] * (n - 1)), st.tuples(*[coord] * m))
    classes = draw(st.lists(cls, max_size=12, unique=True))
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
    terms = {c: draw(coeffs) for c in classes}
    return n, m, bound, terms


def _key(packer, c):
    # the key of one class: its digit row as one-entry columns
    key, = packer.keys([[x] for x in (*c.h, c.b, *c.g)])
    return key


def _packed_series(n, m, bound, terms):
    # terms as a kernel result: two buckets over their own denominators,
    # with a cancelled (zero) numerator in one of them
    packer = series._Packer(n, m, bound)
    classes = list(terms)
    half = len(classes) // 2
    buckets = []
    for part in (classes[:half], classes[half:]):
        den = math.lcm(*(terms[c].denominator for c in part))
        buckets.append((den, {_key(packer, c): int(terms[c] * den) for c in part}))
    zero = RelClass(-bound, (bound,) * (n - 1), (bound,) * m)
    if zero not in terms:
        buckets[0][1][_key(packer, zero)] = 0
    return series._unpacked(n, m, packer, *series._summed(buckets))


@settings(max_examples=150, deadline=None)
@given(packed_terms())
def test_packed_keys_sort_canonically(case):
    n, m, bound, terms = case
    packer = series._Packer(n, m, bound)
    classes = list(terms)
    def key(c):
        return _key(packer, c)

    assert sorted(classes, key=key) == sorted(classes, key=lambda c: c.sort_key)
    cols = packer.columns(sorted(map(key, classes)))
    rows = sorted(classes, key=lambda c: c.sort_key)
    assert [list(col) for col in zip(*cols)] == [[*c.h, c.b, *c.g] for c in rows]
    # the digit columns read back as the classes packed, in canonical order
    assert fan._classes(m, cols) == rows


@settings(max_examples=150, deadline=None)
@given(packed_terms(), st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
def test_packed_series_reads_like_its_dict(case, q):
    # every reader gives the same answer on a kernel result over two
    # buckets as on the same terms built from a dict.  Sums and scalings
    # keep their common denominator unreduced by the gcd, and still
    # compare and hash equal
    n, m, bound, terms = case
    held = series.ClassSeries(n, m, terms)
    want = sorted(terms.items(), key=lambda kv: kv[0].sort_key)

    def fresh():
        # a new kernel result each time, with no items() cached
        return _packed_series(n, m, bound, terms)

    for s in (fresh(), held):
        for same in (s + s - s, s.scaled(q).scaled(1 / q)):
            assert same == s and s == same
            assert hash(same) == hash(s) == hash(held)
        diff = s - s
        assert not diff and len(diff) == 0
        assert diff == series.zero(n, m) and hash(diff) == hash(series.zero(n, m))
        # a class of another shape, or beyond the packer's bound, reads 0,
        # even one whose digits would pack to a term's key
        assert [s.coeff(c) for c in terms] == list(terms.values())
        assert s.coeff(RelClass(0, (0,) * n, (0,) * m)) == 0
        if terms and n + m > 1:
            xs = [*want[0][0].h, want[0][0].b, *want[0][0].g]
            xs[-1] += 1 << series._Packer(n, m, bound).w
            xs[-2] -= 1
            assert s.coeff(RelClass(xs[m], tuple(xs[m + 1:]), tuple(xs[:m]))) == 0

    assert held.items() == want
    assert fresh().items() == want
    assert fresh() == held and held == fresh()
    assert hash(fresh()) == hash(held)
    assert len(fresh()) == len(held) == len(terms)
    assert bool(fresh()) == bool(held)
    for s in (fresh(), held):
        cols, den, nums = s.columns()
        assert [list(col) for col in zip(*cols)] == [[*c.h, c.b, *c.g] for c, _ in want]
        assert [Fraction(v, den) for v in nums] == [q for _, q in want]
    reference = json.dumps(
        {"n": n, "m": m, "terms": series.to_records(held)}, indent=2, ensure_ascii=False) + "\n"
    assert cli.render_series(fresh(), "json") == cli.render_series(held, "json") == reference
    table = cli._table_text(["class", "coeff"], ([fan.class_name(c) for c, _ in want],
                                                 [str(q) for _, q in want]))
    assert cli.render_series(fresh(), "table") == cli.render_series(held, "table") == table
    assert cli.render_series(fresh(), "csv") == cli.render_series(held, "csv")


def _per_key_columns(packer, keys, first=0, stop=None):
    # the reference decoder: one shift and one mask per digit of each key
    us = [key + packer.bias for key in keys]
    return [[(u >> s & packer.mask) - packer.half for u in us] for s in packer.shifts[first:stop]]


def _digit_keys(rng, packer, digits, count):
    # count keys whose digits range over the whole digit, -half and
    # half - 1 included, and the digit columns they were packed from
    lo, hi = -packer.half, packer.half - 1
    cols = [[rng.choice((lo, hi, 0, rng.randint(lo, hi))) for _ in range(count)]
            for _ in range(digits)]
    return packer.keys(cols), cols


class TestBulkDecoder:
    # _Packer.columns reads 32 or more keys that fit 64 bits each from one
    # packed int, and every other key set key by key; both read the same

    @pytest.fixture
    def arrays(self, monkeypatch):
        # the typecodes of the arrays _Packer.columns makes, one list per call
        made = []
        real = series.array

        def spy(code, *args):
            made.append(code)
            return real(code, *args)

        monkeypatch.setattr(series, "array", spy)
        return made

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_key_decoder(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            n, m, bound = rng.randint(1, 9), rng.randint(0, 3), rng.randint(0, 60)
            packer = series._Packer(n, m, bound)
            count = rng.choice((1, 31, 32, 33, 63, 64, 65, 300))
            keys, cols = _digit_keys(rng, packer, n + m, count)
            first = rng.randint(0, n + m)
            stop = rng.choice((None, rng.randint(0, n + m)))
            got = packer.columns(keys, first, stop)
            assert got == _per_key_columns(packer, keys, first, stop) == cols[first:stop]
            assert packer.columns(keys) == cols
            # a dict of keys, as the kernel passes its numerators, reads alike
            nums = dict.fromkeys(keys, 1)
            assert packer.columns(nums, first, stop) == _per_key_columns(packer, nums, first, stop)

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 63, 64, 65, 300])
    def test_bulk_only_from_32_keys(self, count, arrays):
        rng = random.Random(count)
        packer = series._Packer(8, 1, 40)
        keys, cols = _digit_keys(rng, packer, 9, count)
        assert packer.columns(keys) == cols
        assert arrays == ([] if count < 32 else ["Q", "Q"] + ["q"] * 9)

    @pytest.mark.parametrize("digits, bound, bulk", [
        (8, 127, True),          # 8 digits of 8 bits: 64 bits, the widest bulk key
        (9, 127, False),         # 9 digits of 8 bits: 72 bits
        (1, 1 << 62, True),      # one digit of 64 bits, half = 2^63
        (1, 1 << 63, False),     # one digit of 65 bits
        (12, 60, False),         # 9 + 3 digits of 7 bits: 84 bits
    ])
    def test_widest_keys(self, digits, bound, bulk, arrays):
        rng = random.Random(digits)
        n = min(digits, 9)
        packer = series._Packer(n, digits - n, bound)
        assert (packer.shifts[0] + packer.w <= 64) == bulk
        keys, cols = _digit_keys(rng, packer, digits, 300)
        assert packer.columns(keys) == _per_key_columns(packer, keys) == cols
        for first in range(digits + 1):
            assert packer.columns(keys, first) == cols[first:]
        assert bool(arrays) == bulk

    def test_extreme_digits_in_every_slot(self):
        # every key all -half or all half - 1: no carry crosses a slot
        packer = series._Packer(4, 2, 9)
        lo, hi = -packer.half, packer.half - 1
        cols = [[lo, hi] * 50 for _ in range(6)]
        assert packer.columns(packer.keys(cols)) == cols


def _widened(s):
    # s again, on a wider packer: a far term added and taken away
    far = series.monomial(s.n, s.m, RelClass(1000, (0,) * (s.n - 1), (0,) * s.m))
    return (s + far) - far


class TestEquality:
    # == on one packer width compares the keys and the numerators
    # cross-multiplied by the other denominator; across widths it
    # reads columns, and so does hash, so equal series hash equal

    def _f(self):
        return series.ClassSeries(3, 1, {
            RelClass(1, (0, 0), (0,)): Fraction(1),
            RelClass(1, (1, 0), (0,)): Fraction(-2, 3),
            RelClass(0, (1, 2), (1,)): Fraction(5),
        })

    def test_equal_series_on_two_widths_and_denominators(self):
        f = self._f()
        wide, over = _widened(f), f.scaled(3).scaled(Fraction(1, 3))
        assert wide._packed.packer.w > f._packed.packer.w
        assert over._packed.packer.w == f._packed.packer.w
        assert over._packed.den != f._packed.den
        for a, b in [(f, wide), (f, over), (wide, over), (wide, _widened(over))]:
            assert a == b and b == a and hash(a) == hash(b)

    def test_unequal_series_on_two_widths_and_denominators(self):
        f = self._f()
        first = RelClass(1, (0, 0), (0,))
        unequal = [
            f + series.monomial(3, 1, first, Fraction(1, 3)),
            f - series.monomial(3, 1, first),
            f + series.monomial(3, 1, RelClass(0, (0, 1), (0,))),
            f.scaled(2),
            f.scaled(Fraction(2, 3)),
            series.zero(3, 1),
        ]
        for g in unequal:
            for a, b in [(g, f), (_widened(g), f), (g, _widened(f)),
                         (g.scaled(7).scaled(Fraction(1, 7)), f)]:
                assert a != b and b != a
        assert f != series.ClassSeries(3, 2) and f != f.items()

    def test_one_width_decodes_no_key(self, monkeypatch):
        f = series._one_plus_gammas(4, 1)
        w, v = series.power(f, 4), series.times_powers([(series.one(4, 1), 4)], f)
        assert w._packed.packer.w == v._packed.packer.w and w._packed.nums is not v._packed.nums

        def decoded(*args):
            raise AssertionError("== decoded keys")

        monkeypatch.setattr(series._Packer, "columns", decoded)
        assert w == v and v == w.scaled(5).scaled(Fraction(1, 5)) and w != w.scaled(2)


class TestHandoff:
    # kernel results are handed on, not copied (series module docstring);
    # sharing a dict is safe because a series never changes once made

    def test_reduced_hands_on_its_accumulator(self):
        acc = {1: 3, 5: -2}
        den, nums = series._reduced(7, acc)
        assert den == 7 and nums is acc and acc == {1: 3, 5: -2}
        # a cancelled term or a gcd above 1 rebuilds the dict, acc untouched
        for acc, want in [({1: 3, 5: 0}, (7, {1: 3})), ({1: 14, 5: -7}, (1, {1: 2, 5: -1}))]:
            before = dict(acc)
            got = series._reduced(7, acc)
            assert got == want and got[1] is not acc and acc == before
        assert series._reduced(3, {1: 0, 2: 0}) is None

    def test_unpacked_stores_the_dict_it_is_given(self):
        packer = series._Packer(2, 0, 3)
        nums = {0: 1, 5: -2}
        assert series._unpacked(2, 0, packer, 3, nums)._packed.nums is nums
        # a cancelled term is dropped from a new dict, the one given untouched
        nums = {0: 1, 5: 0}
        s = series._unpacked(2, 0, packer, 3, nums)
        assert s._packed.nums == {0: 1} and nums == {0: 1, 5: 0} and len(s) == 1

    @pytest.mark.parametrize("buckets, want", [
        # the largest bucket's scale is 2, then 1; shared keys add up
        ([(2, {1: 1, 2: 3}), (3, {2: 1, 4: 5, 6: -1}), (6, {1: -3})],
         (6, {1: 0, 2: 11, 4: 10, 6: -2})),
        ([(1, {1: 1}), (2, {1: 1, 2: 1, 3: 1})], (2, {1: 3, 2: 1, 3: 1})),
    ])
    def test_summed_leaves_its_inputs(self, buckets, want):
        given = list(buckets)
        copies = [(d, dict(nums)) for d, nums in buckets]
        den, nums = series._summed(buckets)
        assert (den, nums) == want
        assert buckets == copies and all(a is b for a, b in zip(buckets, given))
        assert all(nums is not bucket for _, bucket in buckets)
        lone = (5, {3: 1})
        assert series._summed([lone]) is lone and series._summed([]) == (1, {})

    def test_summed_subtracts_a_bucket_with_negative_den(self):
        # a den below 0 subtracts its bucket from the others, with no
        # negated copy given, whether or not it is the largest
        for buckets, want in [([(2, {1: 1, 2: 3}), (-3, {2: 1, 4: 5})], (6, {1: 3, 2: 7, 4: -10})),
                              ([(2, {1: 1}), (-3, {1: 1, 4: 5})], (6, {1: 1, 4: -10}))]:
            copies = [(d, dict(nums)) for d, nums in buckets]
            assert series._summed(buckets) == want and buckets == copies

    def test_difference_is_the_sum_of_the_negation(self):
        n, m = 3, 1
        f = series.ClassSeries(n, m, {RelClass(1, (0, 0), (0,)): 1,
                                      RelClass(0, (1, 2), (1,)): Fraction(-2, 3)})
        g = series.ClassSeries(n, m, {RelClass(1, (0, 0), (0,)): Fraction(1, 2),
                                      RelClass(0, (300, 0), (0,)): 5})
        for a, b in [(f, g), (g, f), (f, f), (f, series.zero(n, m))]:
            before = (dict(a._packed.nums), dict(b._packed.nums))
            assert a - b == a + (-b) == a + b.scaled(-1)
            assert (a._packed.nums, b._packed.nums) == before
        assert f - g == -(g - f) and len(f - f) == 0

    def test_cancelled_terms_are_dropped(self):
        n, m = 3, 0
        x, y = gamma_mono(n, m, 1), gamma_mono(n, m, 2)
        f = series.one(n, m) + x + y.scaled(Fraction(2, 3))
        for zero in (f - f, series.times_powers([(f, 1), (-f, 1)], f)):
            assert len(zero) == 0 and not zero and zero == series.zero(n, m)
        # (1 + x)(1 - x) = 1 - x^2: the x terms cancel in the product
        prod = series.multiply(series.one(n, m) + x, series.one(n, m) - x)
        assert prod == series.one(n, m) - series.multiply(x, x) and len(prod) == 2
        # log((1 + x)(1 + y)) = log(1 + x) + log(1 + y): every mixed term
        # cancels inside its grade of the solve, the pure ones stay
        trunc = 5
        log_xy = series.series_log(series.multiply(series.one(n, m) + x, series.one(n, m) + y),
                                   trunc)
        want = series.series_log(series.one(n, m) + x, trunc) \
            + series.series_log(series.one(n, m) + y, trunc)
        assert log_xy == want and len(log_xy) == 2 * trunc
        # log(exp(x)) = x: every grade above 1 cancels whole
        assert series.series_log(series.series_exp(x, trunc), trunc) == x
        for s in (prod, log_xy, want):
            assert 0 not in s._packed.nums.values()

    def test_a_shared_dict_stays_equal(self):
        n, m = 3, 1
        f = series.ClassSeries(n, m, {
            RelClass(1, (0, 0), (0,)): Fraction(1),
            RelClass(1, (1, 0), (0,)): Fraction(-2, 3),
            RelClass(0, (1, 2), (1,)): Fraction(5),
        })
        before = dict(f._packed.nums)
        shared = [series.truncate_gamma(f, 10), series.times_powers([(f, 0)], f),
                  f + series.zero(n, m)]
        assert shared[0]._packed.nums is f._packed.nums
        assert shared[1]._packed.nums is f._packed.nums
        for g in shared:
            results = [g + f, f - g, g.scaled(3), series.multiply(g, f), series.power(f, 3),
                       series.power(g, 2), series.truncate_gamma(g + g, 2), f * Fraction(1, 7)]
            assert g == f and hash(g) == hash(f) and f._packed.nums == before
            assert results[0] == f.scaled(2) and not results[1]
