"""End-to-end acceptance gate: ten checks, one pass/fail line each.

Each check records its verdict in RESULTS; the conftest terminal-summary
hook prints the block at the end of the pytest run.  Checks with a stated
time budget measure wall time around the full computation and fail on
overrun.  All comparisons are exact (integers and Fractions throughout).
"""

import itertools
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from opengw import (
    Ambient,
    ChamberPoint,
    ClassSeries,
    Direction,
    FanSpec,
    GluingData,
    RelClass,
    B_MINUS,
    B_PLUS,
    DISCRIMINANT,
    apply_gluing,
    beta_hat_class,
    builtin_fan,
    chekanov_superpotential,
    classify_point,
    clifford_superpotential,
    closed_form_invariant,
    cn_rays,
    det_int,
    gauss_valuation,
    invariant_table,
    monodromy_matrix,
    laurent_mul,
    NovikovLaurent,
    NovikovScalar,
    scalar_val,
    series_exp,
    series_log,
    solve_exp_G,
    t_monomial,
    truncate_gamma,
    validate_fan,
    verify_wall_cross_identity,
    wall,
    wall_cross_rhs,
    wall_component_tropical,
    wall_crossing_factor,
    zero_class,
)
from opengw.series import multiply, one, zero

F = Fraction

RESULTS: dict[int, str] = {}


def _start(num: int, label: str):
    RESULTS[num] = f"FAIL  {label}"


def _ok(num: int, label: str, detail: str):
    RESULTS[num] = f"PASS  {label}  ({detail})"


def _chekanov_table(spec):
    return invariant_table(chekanov_superpotential(spec, Ambient.COMPACT))


def test_check_01_cp2_invariant_table():
    label = "CP^2 Chekanov table is exactly (1, 1, 2, 1)"
    _start(1, label)
    t0 = time.perf_counter()
    table = _chekanov_table(builtin_fan("cpn", n=2))
    dt = time.perf_counter() - t0
    rows = {row.cls: row.value for row in table}
    assert rows == {
        RelClass(1, (0,), (0,)): 1,
        RelClass(-2, (-1,), (1,)): 1,
        RelClass(-2, (0,), (1,)): 2,
        RelClass(-2, (1,), (1,)): 1,
    }
    assert len(table) == 4
    assert dt < 0.1, f"took {dt:.3f}s, budget 0.1s"
    _ok(1, label, f"{dt * 1000:.1f} ms")


def test_check_02_cpn_closed_form_equivalence():
    label = "CP^n tables equal the multinomial closed form, n = 2..6"
    _start(2, label)
    t0 = time.perf_counter()
    for n in range(2, 7):
        spec = builtin_fan("cpn", n=n)
        table = _chekanov_table(spec)
        got = {row.cls: row.value for row in table}
        expected = {beta_hat_class(spec): F(1)}
        for k in itertools.product(range(-1, n), repeat=n - 1):
            if sum(k) > 1:
                continue
            expected[RelClass(-n, k, (1,))] = closed_form_invariant(
                "cpn", {"n": n, "k": k}
            )
        # value match on every admissible class and exact support equality
        assert got == expected
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"took {dt:.2f}s, budget 5s"
    _ok(2, label, f"{dt:.2f} s")


def test_check_03_product_closed_form_equivalence():
    label = "CP^r x CP^(n-r) tables equal their closed forms, 1 <= r < n <= 6"
    _start(3, label)
    t0 = time.perf_counter()
    for n in range(2, 7):
        for r in range(1, n):
            table = _chekanov_table(builtin_fan("cp_product", n=n, r=r))
            for row in table:
                if not any(row.cls.h):
                    want = F(1)
                else:
                    branch = "H1" if row.cls.h[0] else "H2"
                    want = closed_form_invariant(
                        "cp_product", {"n": n, "r": r, "branch": branch, "k": row.cls.g}
                    )
                assert row.value == want
    # the quadric-like special case: five classes, every invariant equal to 1
    table = _chekanov_table(builtin_fan("cp_product", n=2, r=1))
    assert len(table) == 5
    assert all(row.value == 1 for row in table)
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.2f}s, budget 10s"
    _ok(3, label, f"{dt:.2f} s")


def test_check_04_f1_invariant_table():
    label = "F_1 table carries values (1, 1, 2, 1, 1) on the five stated classes"
    _start(4, label)
    t0 = time.perf_counter()
    table = _chekanov_table(builtin_fan("hirzebruch_f1"))
    dt = time.perf_counter() - t0
    assert table.value_of(RelClass(1, (0,), (0, 0))) == 1
    assert table.value_of(RelClass(-2, (-1,), (1, 0))) == 1
    assert table.value_of(RelClass(-2, (0,), (1, 0))) == 2
    assert table.value_of(RelClass(-2, (1,), (1, 0))) == 1
    assert table.value_of(RelClass(-1, (0,), (0, 1))) == 1
    assert dt < 0.1, f"took {dt:.3f}s, budget 0.1s"
    _ok(4, label, f"{dt * 1000:.1f} ms")


GLUE_FANS = [
    ("cpn", {"n": 2}),
    ("cpn", {"n": 3}),
    ("cpn", {"n": 4}),
    ("cp_product", {"n": 2, "r": 1}),
    ("cp_product", {"n": 3, "r": 1}),
    ("cp_product", {"n": 5, "r": 2}),
    ("hirzebruch_f1", {}),
]


def test_check_05_gluing_consistency():
    label = "gluing carries Clifford onto Chekanov with zero residual"
    _start(5, label)
    t0 = time.perf_counter()
    for name, params in GLUE_FANS:
        spec = builtin_fan(name, **params)
        w_plus = clifford_superpotential(spec, Ambient.COMPACT)
        w_minus = chekanov_superpotential(spec, Ambient.COMPACT)
        for trunc in (4, 8, 16):
            gd = GluingData(
                wall_crossing_factor(spec).factor, Direction.PLUS_TO_MINUS, trunc
            )
            glued = apply_gluing(spec, w_plus.series, gd)
            residual = glued - truncate_gamma(w_minus.series, trunc)
            assert not residual, f"{name} {params} trunc={trunc}: {residual!r}"
        # without compactifying divisors everything but the basic disk cancels
        w_open = clifford_superpotential(spec, Ambient.OPEN)
        gd = GluingData(wall_crossing_factor(spec).factor, Direction.PLUS_TO_MINUS, 16)
        collapsed = apply_gluing(spec, w_open.series, gd)
        assert collapsed == ClassSeries(
            spec.n, spec.m, {beta_hat_class(spec): F(1)}
        ), f"{name} {params}: open gluing did not collapse to the basic disk"
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"took {dt:.2f}s, budget 5s"
    _ok(5, label, f"{len(GLUE_FANS)} fans x 3 truncations, {dt:.2f} s")


def test_check_06_wall_crossing_identity():
    label = "wall-crossing identity holds for n = 1..6 at truncation 12"
    _start(6, label)
    t0 = time.perf_counter()
    for n in range(1, 7):
        spec = FanSpec(n, ())
        assert verify_wall_cross_identity(spec, 12), f"identity failed at n={n}"
        rhs = wall_cross_rhs(spec, 12)
        # the energy-zero coefficient of the glued series is the basic
        # disk count, pinned to 1
        assert rhs.coeff(zero_class(spec)) == 1
        assert truncate_gamma(solve_exp_G(spec, 12), 0) == zero(spec.n, spec.m)
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"took {dt:.2f}s, budget 2s"
    _ok(6, label, f"n_beta_hat = 1 at every n, {dt:.2f} s")


def test_check_07_sphere_class_sum_law():
    label = "sphere-class invariant sums equal n^n for CP^n, n <= 8"
    _start(7, label)
    t0 = time.perf_counter()
    for n in range(1, 9):
        table = _chekanov_table(builtin_fan("cpn", n=n))
        total = sum(row.value for row in table if any(row.cls.h))
        assert total == n**n, f"n={n}: got {total}, want {n**n}"
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"took {dt:.2f}s, budget 2s"
    _ok(7, label, f"{dt:.2f} s")


def test_check_08_fan_validation_verdicts():
    label = "validation verdicts separate the stock fans correctly"
    _start(8, label)
    good = [
        builtin_fan("cpn", n=2),
        builtin_fan("cpn", n=4),
        builtin_fan("cp_product", n=2, r=1),
        builtin_fan("cp_product", n=4, r=2),
        builtin_fan("hirzebruch_f1"),
    ]
    for spec in good:
        report = validate_fan(spec)
        assert report.all_ok, report.diagnostics
    report = validate_fan(builtin_fan("f2_nonfano"))
    assert report.primitive_ok and report.smooth_ok and report.complete_ok
    assert not report.fano_ok
    cp3 = builtin_fan("cpn", n=3)
    punctured = FanSpec(cp3.n, cp3.extra_rays, max_cones=cp3.max_cones[:-1])
    report = validate_fan(punctured)
    assert report.primitive_ok and report.smooth_ok
    assert not report.complete_ok
    _ok(8, label, "positives, Fano-only failure, completeness-only failure")


def test_check_09_base_classification_grid():
    label = "n = 3 wall components on a 121-point grid match the tropical rule"
    _start(9, label)
    rays = cn_rays(3)
    step = F(1, 3)
    grid = [step * k for k in range(-5, 6)]
    count = 0
    for lam1 in grid:
        for lam2 in grid:
            count += 1
            point = ChamberPoint((lam1, lam2), F(0))
            got = classify_point(3, point)
            # explicit components: H_1 where lam1 is the unique minimum of
            # (lam1, lam2, 0), H_2 for lam2, H_3 for 0; ties are singular
            values = (lam1, lam2, F(0))
            low = min(values)
            argmin = [i for i, v in enumerate(values) if v == low]
            expected = wall(argmin[0] + 1) if len(argmin) == 1 else DISCRIMINANT
            assert got == expected, f"{point}: {got} != {expected}"
            trop = wall_component_tropical(rays, (lam1, lam2))
            if trop is None:
                assert got == DISCRIMINANT
            else:
                assert got == wall(3 if trop == 0 else trop)
    assert count == 121 >= 100
    for q2, side in [(F(1, 7), B_PLUS), (F(-1, 7), B_MINUS)]:
        assert classify_point(3, ChamberPoint((F(1), F(2)), q2)) == side
    _ok(9, label, f"{count} grid points")


# ---- check 10: five randomized property suites, 200 cases each ----

_coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda q: q != 0)


def _class_series(n=2, m=1, lo=-3, hi=3, h_hi=2, size=4):
    classes = st.builds(
        RelClass,
        st.integers(min_value=-2, max_value=2),
        st.tuples(*[st.integers(min_value=lo, max_value=hi)] * (n - 1)),
        st.tuples(*[st.integers(min_value=0, max_value=h_hi)] * m),
    )
    return st.dictionaries(classes, _coeffs, max_size=size).map(
        lambda d: ClassSeries(n, m, d)
    )


@settings(max_examples=200)
@given(_class_series(), _class_series(), _class_series())
def _suite_series_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)
    assert multiply(one(2, 1), a) == a
    assert a + zero(2, 1) == a


_positive_series = st.dictionaries(
    st.builds(
        RelClass,
        st.just(0),
        st.tuples(st.integers(min_value=1, max_value=5)),
        st.just(()),
    ),
    _coeffs,
    min_size=1,
    max_size=4,
).map(lambda d: ClassSeries(2, 0, d))


@settings(max_examples=200)
@given(_positive_series)
def _suite_exp_log_inversion(g):
    t = 12
    e = series_exp(g, t)
    assert truncate_gamma(series_log(e, t), t) == truncate_gamma(g, t)
    f = one(2, 0) + g
    assert truncate_gamma(series_exp(series_log(f, t), t), t) == truncate_gamma(f, t)


_scalars = st.lists(
    st.tuples(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ),
    max_size=5,
).map(lambda pairs: NovikovScalar.from_terms(pairs))


@settings(max_examples=200)
@given(_scalars, _scalars)
def _suite_ultrametric_laws(x, y):
    vx, vy = scalar_val(x), scalar_val(y)
    # exact coefficients: leading terms cannot cancel, so val is additive
    assert scalar_val(x * y) == vx + vy
    s = x + y
    assert scalar_val(s) >= min(vx, vy)
    if vx != vy:
        assert scalar_val(s) == min(vx, vy)
    assert x + (-x) == NovikovScalar.from_terms([])


_vertices = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)

_laurents = st.dictionaries(
    st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
    st.builds(
        lambda e, c: t_monomial(e, c),
        st.fractions(min_value=0, max_value=3, max_denominator=4),
        _coeffs,
    ),
    min_size=1,
    max_size=4,
).map(lambda d: NovikovLaurent(2, d))


@settings(max_examples=200)
@given(_laurents, _laurents, _vertices)
def _suite_gauss_vertex_multiplicativity(f, g, nu):
    product = laurent_mul(f, g)
    assert gauss_valuation(product, [nu]) == gauss_valuation(f, [nu]) + gauss_valuation(
        g, [nu]
    )


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def _identity(size):
    return tuple(tuple(int(i == j) for j in range(size)) for i in range(size))


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def _suite_monodromy_group_laws(n, data):
    rays = cn_rays(n)
    idx = st.integers(min_value=0, max_value=n - 1)
    i, j, k = data.draw(idx), data.draw(idx), data.draw(idx)
    mij = monodromy_matrix(rays, i, j)
    mjk = monodromy_matrix(rays, j, k)
    assert _mat_mul(mij, mjk) == monodromy_matrix(rays, i, k)
    assert _mat_mul(mij, monodromy_matrix(rays, j, i)) == _identity(n)
    assert monodromy_matrix(rays, i, i) == _identity(n)
    assert det_int([list(row) for row in mij]) == 1


def test_check_10_property_suites():
    label = "five randomized property suites, 200 cases each"
    _start(10, label)
    t0 = time.perf_counter()
    _suite_series_ring_laws()
    _suite_exp_log_inversion()
    _suite_ultrametric_laws()
    _suite_gauss_vertex_multiplicativity()
    _suite_monodromy_group_laws()
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"took {dt:.2f}s, budget 30s"
    _ok(10, label, f"{dt:.2f} s")
