"""Fan validation, disk classes, boundaries, Maslov indices."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opengw import errors, fan


def cofactor_det(mat):
    """Independent determinant oracle: direct cofactor expansion."""
    k = len(mat)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
)


@given(small_matrices)
def test_det_matches_cofactor_oracle(mat):
    assert fan.det_int(mat) == cofactor_det(mat)


class TestValidation:
    def test_cp2_all_ok(self):
        spec = fan.FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 1), (0, 2), (1, 2)))
        report = fan.validate_fan(spec)
        assert report.all_ok
        assert report.diagnostics == ()

    def test_f2_fails_only_fano(self):
        report = fan.validate_fan(fan.builtin_fan("f2_nonfano"))
        assert report.primitive_ok and report.smooth_ok and report.complete_ok
        assert not report.fano_ok
        # the offending cones are named, each with its integral pairing
        assert report.diagnostics == (
            "cone 2 (2, 3): ray 0 pairs to 1 (needs < 1)",
            "cone 3 (0, 2): ray 3 pairs to 1 (needs < 1)",
        )

    def test_missing_cone_breaks_completeness(self):
        spec = fan.FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 1), (0, 2)))
        report = fan.validate_fan(spec)
        assert report.smooth_ok
        assert not report.complete_ok
        assert any("facet" in d for d in report.diagnostics)

    def test_no_cones_raises(self):
        spec = fan.FanSpec(n=2, extra_rays=((1, 1),))
        with pytest.raises(errors.MissingCones):
            fan.validate_fan(spec)

    def test_malformed_cone(self):
        spec = fan.FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 0), (1, 2), (0, 2)))
        with pytest.raises(errors.MalformedCone):
            fan.validate_fan(spec)

    def test_cone_index_out_of_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            fan.FanSpec(n=2, extra_rays=((1, 1),), max_cones=((0, 7),))

    def test_nonprimitive_ray_reported(self):
        spec = fan.FanSpec(n=2, extra_rays=((2, 2),), max_cones=((0, 1), (0, 2), (1, 2)))
        report = fan.validate_fan(spec)
        assert not report.primitive_ok

    def test_duplicate_ray_reported(self):
        spec = fan.FanSpec(
            n=2, extra_rays=((1, 1), (1, 1)), max_cones=((0, 1), (0, 2), (1, 3))
        )
        report = fan.validate_fan(spec)
        assert not report.primitive_ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_builtin_cpn_all_ok(self, n):
        assert fan.validate_fan(fan.builtin_fan("cpn", n=n)).all_ok

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 7) for r in range(1, n)])
    def test_builtin_products_all_ok(self, n, r):
        assert fan.validate_fan(fan.builtin_fan("cp_product", n=n, r=r)).all_ok

    def test_builtin_f1_all_ok(self):
        assert fan.validate_fan(fan.builtin_fan("hirzebruch_f1")).all_ok

    def test_fano_verdict_stable_under_relabeling(self):
        # swap the two extra rays of F_1 and relabel cones accordingly
        orig = fan.builtin_fan("hirzebruch_f1")
        relabel = {0: 0, 1: 1, 2: 3, 3: 2}
        swapped = fan.FanSpec(
            n=2,
            extra_rays=(orig.extra_rays[1], orig.extra_rays[0]),
            max_cones=tuple(tuple(sorted(relabel[i] for i in c)) for c in orig.max_cones),
        )
        assert fan.validate_fan(swapped).fano_ok == fan.validate_fan(orig).fano_ok

    def test_unknown_builtin(self):
        with pytest.raises(errors.UnknownName):
            fan.builtin_fan("dp3")

    def test_bad_builtin_params(self):
        with pytest.raises(errors.BadParams):
            fan.builtin_fan("cpn", n=0)
        with pytest.raises(errors.BadParams):
            fan.builtin_fan("cp_product", n=3, r=3)
        with pytest.raises(errors.BadParams):
            fan.builtin_fan("cpn")

    @pytest.mark.parametrize(
        "n, rays, cones",
        [
            (2, ((1.9, 1),), None),
            (2, ((1, 1),), ((0, 1.5),)),
            (2, (("1", 1),), None),
            (2, ((True, 1),), None),
            (2.0, ((1, 1),), None),
            (2, (5,), None),
            (2, ((1, 1),), (5,)),
            (2, 5, None),
            (2, ((1, 1),), 5),
        ],
    )
    def test_non_integer_fan_data_rejected(self, n, rays, cones):
        # never rounded: (1.9, 1) used to become the ray (1, 1); a ray or
        # cone that is not a sequence, like (5,), used to raise a raw TypeError
        with pytest.raises(errors.BadParams):
            fan.FanSpec(n, rays, cones)

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_require_int(self, bad):
        assert fan.require_int(3, "x") == 3
        with pytest.raises(errors.BadParams):
            fan.require_int(bad, "x")
        with pytest.raises(errors.SchemaError):
            fan.require_int(bad, "x", errors.SchemaError)

    @pytest.mark.parametrize("bad", [(1.0, 2), [1, "2"], (True, 2), (1, 2, 3), 5, "12", None])
    def test_require_ints(self, bad):
        assert fan.require_ints([1, -2], "x", 2) == (1, -2)
        assert fan.require_ints((), "x") == ()
        with pytest.raises(errors.BadParams):
            fan.require_ints(bad, "x", 2)
        with pytest.raises(errors.SchemaError):
            fan.require_ints(bad, "x", 2, errors.SchemaError)

    @pytest.mark.parametrize(
        "good, value",
        [(3, 3), (-2, -2), (Fraction(1, 3), Fraction(1, 3)), ("1/2", Fraction(1, 2)),
         ("0.1", Fraction(1, 10)), (" -3/4 ", Fraction(-3, 4))],
    )
    def test_require_rational_is_exact(self, good, value):
        got = fan.require_rational(good, "x")
        assert type(got) is Fraction and got == value

    @pytest.mark.parametrize("bad", [0.1, 1.0, True, None, "x", "1/0", "", [1], (1, 2)])
    def test_require_rational_rejects(self, bad):
        # 0.1 would be 3602879701896397/2^55, never the area 1/10
        with pytest.raises(errors.BadParams):
            fan.require_rational(bad, "x")
        with pytest.raises(errors.ParseError):
            fan.require_rational(bad, "x", errors.ParseError)

    def test_require_rational_keeps_a_fraction(self):
        # a Fraction is immutable, so it comes back as the same object; a
        # subclass still comes back as a plain Fraction, and a float, bool
        # or None still raises the caller's error class
        class Sub(Fraction):
            pass

        q = Fraction(-7, 3)
        assert fan.require_rational(q, "x") is q
        got = fan.require_rational(Sub(1, 3), "x")
        assert type(got) is Fraction and got == Fraction(1, 3)
        for bad in (0.5, False, None):
            with pytest.raises(errors.SchemaError):
                fan.require_rational(bad, "x", errors.SchemaError)

    def test_parse_energies(self):
        got = fan.parse_energies({"beta_hat": "1/2", "gamma": [1, "0.1"], "H": None})
        assert got == fan.EnergyValues(Fraction(1, 2), (Fraction(1), Fraction(1, 10)), None)
        assert fan.parse_energies({"beta_hat": 2}) == fan.EnergyValues(Fraction(2), ())


class TestClasses:
    def setup_method(self):
        self.cp2 = fan.builtin_fan("cpn", n=2)
        self.f1 = fan.builtin_fan("hirzebruch_f1")

    def test_ray_decomposition_cp2(self):
        v, p = fan.ray_decomposition(self.cp2, 1)
        assert v == (1, 1) and p == 2

    def test_ray_decomposition_f1(self):
        assert fan.ray_decomposition(self.f1, 1) == ((1, 1), 2)
        assert fan.ray_decomposition(self.f1, 2) == ((0, 1), 1)

    def test_boundary_of_basic_disks(self):
        # d(beta_i) = -e_i in every dimension
        for n in range(1, 5):
            spec = fan.builtin_fan("cpn", n=n)
            for i in range(1, n + 1):
                expected = tuple(-1 if j == i - 1 else 0 for j in range(n))
                assert fan.class_boundary(spec, fan.beta_class(spec, i)) == expected

    def test_boundary_of_beta_prime_is_the_ray(self):
        for name, kw in [
            ("cpn", {"n": 3}),
            ("cp_product", {"n": 3, "r": 1}),
            ("hirzebruch_f1", {}),
        ]:
            spec = fan.builtin_fan(name, **kw)
            for a in range(1, spec.m + 1):
                v, _ = fan.ray_decomposition(spec, a)
                assert fan.class_boundary(spec, fan.beta_prime_class(spec, a)) == v

    def test_boundary_vanishes_on_spheres(self):
        assert fan.class_boundary(self.cp2, fan.sphere_class(self.cp2, 1)) == (0, 0)

    def test_maslov_values(self):
        assert fan.class_maslov(self.cp2, fan.beta_hat_class(self.cp2)) == 2
        assert fan.class_maslov(self.cp2, fan.gamma_class(self.cp2, 1)) == 0
        # a line in CP^2 has Maslov 6 = 2(1 + p)
        assert fan.class_maslov(self.cp2, fan.sphere_class(self.cp2, 1)) == 6
        for a in (1, 2):
            assert fan.class_maslov(self.f1, fan.beta_prime_class(self.f1, a)) == 2

    def test_shape_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            fan.class_boundary(self.cp2, fan.RelClass(0, (0, 0), (0,)))
        with pytest.raises(errors.DimensionMismatch):
            fan.class_maslov(self.cp2, fan.RelClass(0, (0,), ()))

    def test_class_names(self):
        assert fan.class_name(fan.RelClass(-2, (1,), (1,))) == "H_1 - 2β̂ + γ_1"
        assert fan.class_name(fan.RelClass(1, (0,), (0,))) == "β̂"
        assert fan.class_name(fan.RelClass(0, (0,), (0,))) == "0"
        assert fan.class_name(fan.RelClass(-1, (-3, 0), (0, 2))) == (
            "2H_2 - β̂ - 3γ_1"
        )


def two_pass_class_name(c):
    """The former class_name: a list of (coefficient, symbol) pairs, then a
    second pass of f-strings."""
    parts = []
    for a, ha in enumerate(c.h, start=1):
        if ha:
            parts.append((ha, f"H_{a}"))
    if c.b:
        parts.append((c.b, "β̂"))
    for k, gk in enumerate(c.g, start=1):
        if gk:
            parts.append((gk, f"γ_{k}"))
    if not parts:
        return "0"
    pieces = []
    for coeff, sym in parts:
        mag = abs(coeff)
        body = sym if mag == 1 else f"{mag}{sym}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_class_name_matches_two_pass_names(n, m):
    # every class with coordinates in [-3, 3]: 7^(n + m) names, byte for byte
    for coords in itertools.product(range(-3, 4), repeat=n + m):
        c = fan.RelClass(coords[0], coords[1:n], coords[n:])
        assert fan.class_name(c) == two_pass_class_name(c), coords


@pytest.mark.parametrize("seed", range(6))
def test_class_names_match_row_by_row(seed):
    # random tables, their leading coordinate often 0 or negative, an
    # all-zero row in each; m = 0 puts b first and g = 0 leaves no gamma
    rng = random.Random(seed)
    for _ in range(40):
        m, g = rng.randint(0, 3), rng.randint(0, 4)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-12, 12))) for _ in range(m + 1 + g)]
                for _ in range(rng.randint(0, 150))]
        rows.insert(rng.randint(0, len(rows)), [0] * (m + 1 + g))
        columns = [list(col) for col in zip(*rows)]
        classes = fan._classes(m, columns)
        names = fan._class_names(m, g, columns)
        assert names == list(map(fan.class_name, classes))
        assert names == list(map(two_pass_class_name, classes))
        assert names[rows.index([0] * (m + 1 + g))] == "0"


@pytest.mark.parametrize("m, g, rows, names", [
    (0, 0, [[0], [3], [-1], [1]], ["0", "3β̂", "-β̂", "β̂"]),
    (1, 1, [[0, -2, 1], [-2, 0, 0], [0, 0, -1], [0, 0, 0]], ["-2β̂ + γ_1", "-2H_1", "-γ_1", "0"]),
    (2, 0, [[0, 0, 5], [0, -1, -1], [-1, 1, 0]], ["5β̂", "-H_2 - β̂", "-H_1 + H_2"]),
])
def test_class_names_leading_pieces(m, g, rows, names):
    assert fan._class_names(m, g, [list(col) for col in zip(*rows)]) == names


def rel_classes(n, m):
    return st.builds(
        fan.RelClass,
        st.integers(min_value=-4, max_value=4),
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * (n - 1)),
        st.tuples(*[st.integers(min_value=-4, max_value=4)] * m),
    )


@given(st.data())
def test_boundary_and_maslov_are_additive(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="n")
    spec = fan.builtin_fan("cpn", n=n)
    c1 = data.draw(rel_classes(n, 1), label="c1")
    c2 = data.draw(rel_classes(n, 1), label="c2")
    b1 = fan.class_boundary(spec, c1)
    b2 = fan.class_boundary(spec, c2)
    assert fan.class_boundary(spec, c1 + c2) == tuple(x + y for x, y in zip(b1, b2))
    assert fan.class_maslov(spec, c1 + c2) == fan.class_maslov(spec, c1) + fan.class_maslov(
        spec, c2
    )


@given(st.data())
def test_transported_disk_identity(data):
    # beta_i - beta_hat = gamma_i and gamma_n is absent (beta_n = beta_hat)
    n = data.draw(st.integers(min_value=2, max_value=5), label="n")
    spec = fan.builtin_fan("cpn", n=n)
    i = data.draw(st.integers(min_value=1, max_value=n - 1), label="i")
    diff = fan.beta_class(spec, i) - fan.beta_hat_class(spec)
    assert diff == fan.gamma_class(spec, i)
    assert fan.beta_class(spec, n) == fan.beta_hat_class(spec)
