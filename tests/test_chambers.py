"""Base classification, tropical wall detection, monodromy shears."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opengw import chambers, errors


def pt(lam, q2):
    return chambers.ChamberPoint(tuple(Fraction(x) for x in lam), Fraction(q2))


class TestClassify:
    @pytest.mark.parametrize("lam, q2", [((), "x"), ((), 0.5), ((0.5,), 0), ("12", 0), (5, 0)])
    def test_point_must_be_exact(self, lam, q2):
        # "x" used to escape as a raw ValueError and 0.5 was kept as a float area
        with pytest.raises(errors.BadParams):
            chambers.ChamberPoint(lam, q2)

    def test_exact_strings_accepted(self):
        p = chambers.ChamberPoint(["1/2", 3], "0.1")
        assert p.lam == (Fraction(1, 2), 3) and p.q2 == Fraction(1, 10)

    def test_sides(self):
        assert chambers.classify_point(3, pt([1, 2], Fraction(1, 2))) == chambers.B_PLUS
        assert chambers.classify_point(3, pt([1, 2], Fraction(-1, 2))) == chambers.B_MINUS

    def test_walls_n3(self):
        assert chambers.classify_point(3, pt([-1, 2], 0)) == chambers.wall(1)
        assert chambers.classify_point(3, pt([2, -1], 0)) == chambers.wall(2)
        assert chambers.classify_point(3, pt([1, 2], 0)) == chambers.wall(3)

    def test_discriminant_ties(self):
        assert chambers.classify_point(3, pt([-1, -1], 0)) == chambers.DISCRIMINANT
        assert chambers.classify_point(3, pt([0, 2], 0)) == chambers.DISCRIMINANT
        assert chambers.classify_point(2, pt([0], 0)) == chambers.DISCRIMINANT

    def test_wall_n1(self):
        # no lambdas at all: the critical level is a single wall
        assert chambers.classify_point(1, pt([], 0)) == chambers.wall(1)

    def test_outside_base(self):
        with pytest.raises(errors.OutsideBase):
            chambers.classify_point(2, pt([1], -1))

    @pytest.mark.parametrize("n", [True, 1.0, 0, -1])
    def test_n_must_be_a_positive_int(self, n):
        # True and 1.0 used to classify as n = 1, and 0 to expect -1 lambdas
        with pytest.raises(errors.BadParams):
            chambers.classify_point(n, pt([], 0))

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            chambers.classify_point(3, pt([1], 0))

    def test_explicit_components_n3(self):
        # explicit descriptions of the three wall components for n = 3
        step = Fraction(1, 3)
        grid = [step * k for k in range(-6, 7)]
        for l1 in grid:
            for l2 in grid:
                got = chambers.classify_point(3, pt([l1, l2], 0))
                if l1 < 0 and l1 < l2:
                    assert got == chambers.wall(1)
                elif l2 < 0 and l2 < l1:
                    assert got == chambers.wall(2)
                elif l1 > 0 and l2 > 0:
                    assert got == chambers.wall(3)
                else:
                    assert got == chambers.DISCRIMINANT


class TestTropical:
    def test_cn_rays_shape(self):
        rays = chambers.cn_rays(3)
        assert rays.rays == ((0, 0, 1), (1, 0, 1), (0, 1, 1))

    def test_m0_pairing_enforced(self):
        with pytest.raises(errors.BadParams):
            chambers.CYFanRays(((1, 0), (2, 1)))

    @pytest.mark.parametrize(
        "rays, constants, m0",
        [
            ((5,), None, None),
            (((1.9, 1), (0, 1)), None, None),
            ((("1", 1), (0, 1)), None, None),
            (((True, 1), (0, 1)), None, None),
            (((1, 1), (0, 1)), (0.5, 0), None),
            (((1, 1), (0, 1)), 5, None),
            (((1, 1), (0, 1)), None, (0.0, 1)),
        ],
    )
    def test_non_exact_ray_data_rejected(self, rays, constants, m0):
        # (1.9, 1) used to be rounded to the ray (1, 1); (5,) raised a raw TypeError
        with pytest.raises(errors.BadParams):
            chambers.CYFanRays(rays, constants, m0)

    def test_exact_ray_data_kept(self):
        rays = chambers.CYFanRays(((1, 1), (0, 1)), ("1/2", 0), [0, 1])
        assert rays.constants == (Fraction(1, 2), 0) and rays.m0 == (0, 1)

    @pytest.mark.parametrize("xi", [[0.5, 0], ["x", 0], [None, 0], 5, "12"])
    def test_tropical_point_must_be_exact(self, xi):
        with pytest.raises(errors.BadParams):
            chambers.wall_component_tropical(chambers.cn_rays(3), xi)

    def test_component_of_generic_point(self):
        rays = chambers.cn_rays(3)
        assert chambers.wall_component_tropical(rays, [-1, 2]) == 1
        assert chambers.wall_component_tropical(rays, [2, -1]) == 2
        assert chambers.wall_component_tropical(rays, [1, 2]) == 0

    def test_tie_is_pi(self):
        rays = chambers.cn_rays(3)
        assert chambers.wall_component_tropical(rays, [0, 1]) is None

    def test_constant_perturbation_breaks_tie(self):
        rays = chambers.cn_rays(3, constants=[Fraction(-1), Fraction(0), Fraction(0)])
        assert chambers.wall_component_tropical(rays, [0, 0]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            chambers.wall_component_tropical(chambers.cn_rays(3), [1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_classify_on_grid(self, n):
        rays = chambers.cn_rays(n)
        step = Fraction(1, 3)
        grid = [step * k for k in range(-4, 5)]

        def walk(prefix):
            if len(prefix) == n - 1:
                yield tuple(prefix)
                return
            for x in grid:
                yield from walk(prefix + [x])

        for lam in walk([]):
            got = chambers.wall_component_tropical(rays, lam)
            expected = chambers.classify_point(n, pt(lam, 0))
            if got is None:
                assert expected == chambers.DISCRIMINANT
            elif got == 0:
                assert expected == chambers.wall(n)
            else:
                assert expected == chambers.wall(got)


class TestMonodromy:
    def test_c2_example(self):
        rays = chambers.cn_rays(2)
        assert chambers.monodromy_matrix(rays, 0, 1) == ((1, 1), (0, 1))

    def test_identity_on_same_ray(self):
        rays = chambers.cn_rays(3)
        eye = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
        assert chambers.monodromy_matrix(rays, 1, 1) == eye

    def test_index_range(self):
        with pytest.raises(errors.IndexOutOfRange):
            chambers.monodromy_matrix(chambers.cn_rays(2), 0, 5)


def mat_mul(a, b):
    k = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)) for i in range(k)
    )


@given(st.data())
def test_monodromy_group_laws(data):
    n = data.draw(st.integers(min_value=2, max_value=5), label="n")
    rays = chambers.cn_rays(n)
    i = data.draw(st.integers(min_value=0, max_value=n - 1), label="i")
    j = data.draw(st.integers(min_value=0, max_value=n - 1), label="j")
    k = data.draw(st.integers(min_value=0, max_value=n - 1), label="k")
    eye = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    mij = chambers.monodromy_matrix(rays, i, j)
    mji = chambers.monodromy_matrix(rays, j, i)
    assert mat_mul(mij, mji) == eye
    mjk = chambers.monodromy_matrix(rays, j, k)
    mik = chambers.monodromy_matrix(rays, i, k)
    assert mat_mul(mij, mjk) == mik
