import math

import numpy as np
import pytest

from conftest import enclosing_ball_oracle
from mediankit import InputError, UnsupportedNormError
from mediankit.convexity import (PointCloud, affine_defect, check_cn_inequality,
                                 circumcenter, circumradius_at, is_affine,
                                 midpoint_contraction_ratio,
                                 uniform_convexity_modulus, vector_norm)
from mediankit.errors import InternalCheckError


def cloud(pts, norm="euclidean"):
    return PointCloud.build(pts, norm)


# ---------------------------------------------------------------- circumcenter

def test_two_points_give_the_midpoint():
    res = circumcenter(cloud([[0, 0], [2, 0]]))
    assert np.allclose(res.center, [1, 0], atol=1e-12)
    assert abs(res.radius - 1) < 1e-12


def test_singleton_gives_radius_zero():
    res = circumcenter(cloud([[3.5, -1, 2]]))
    assert np.allclose(res.center, [3.5, -1, 2])
    assert res.radius == 0


def test_equilateral_triangle_closed_form():
    side = 2.0
    tri = cloud([[0, 0], [side, 0], [side / 2, side * math.sqrt(3) / 2]])
    res = circumcenter(tri)
    assert abs(res.radius - 2 / math.sqrt(3)) < 1e-9
    assert np.allclose(res.center, [1, 1 / math.sqrt(3)], atol=1e-9)


def test_interior_points_do_not_matter():
    pts = [[0, 0], [2, 0], [1, 0.2], [1.2, -0.1], [0.5, 0.3]]
    res = circumcenter(cloud(pts))
    assert abs(res.radius - 1) < 1e-9
    assert np.allclose(res.center, [1, 0], atol=1e-9)


def test_non_euclidean_norms_fail_loudly():
    with pytest.raises(UnsupportedNormError):
        circumcenter(cloud([[0, 0], [1, 1]], norm="l1"))
    with pytest.raises(UnsupportedNormError):
        circumcenter(cloud([[0, 0], [1, 1]], norm="linf"))


def test_two_seeds_agree_within_tolerance():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((40, 3))
    tol = 1e-9
    a = circumcenter(cloud(pts), tol=tol, seed=1)
    b = circumcenter(cloud(pts), tol=tol, seed=99)
    assert np.linalg.norm(a.center - b.center) <= 10 * tol
    assert abs(a.radius - b.radius) <= 10 * tol


def test_matches_exact_oracle_dimensions_two_and_three():
    for dim in (2, 3):
        for seed in (0, 5, 11):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((14, dim)) * 3
            res = circumcenter(cloud(pts))
            _, oracle_r = enclosing_ball_oracle(pts)
            assert abs(res.radius - oracle_r) <= 1e-9
            assert res.radius >= oracle_r - 1e-9  # never better than optimal


def test_certificate_is_the_recomputed_maximum():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((25, 2))
    res = circumcenter(cloud(pts))
    assert res.certificate == res.radius
    assert abs(circumradius_at(cloud(pts), res.center) - res.radius) < 1e-15


def test_duplicated_points_are_fine():
    res = circumcenter(cloud([[1, 1], [1, 1], [3, 1]]))
    assert abs(res.radius - 1) < 1e-12


def test_bad_tol_rejected():
    with pytest.raises(InputError):
        circumcenter(cloud([[0, 0]]), tol=0)


# ----------------------------------------------- circumradius function facts

def test_circumradius_is_1_lipschitz():
    rng = np.random.default_rng(13)
    pts = cloud(rng.standard_normal((20, 3)))
    for _ in range(200):
        x, y = rng.standard_normal((2, 3)) * 2
        rx, ry = circumradius_at(pts, x), circumradius_at(pts, y)
        assert abs(rx - ry) <= np.linalg.norm(x - y) + 1e-12


def test_minimizing_sequences_are_cauchy():
    """Any sequence with r(x_n) -> r collapses: for eps there is a tail
    where |x_m - x_n| < eps * max(r(x_m), r(x_n))."""
    rng = np.random.default_rng(21)
    pts = cloud(rng.standard_normal((15, 2)) * 2)
    center = circumcenter(pts).center
    seq = [center + (0.75 ** n) * rng.standard_normal(2) for n in range(40)]
    radii = [circumradius_at(pts, x) for x in seq]
    # radii approach the optimum
    assert radii[-1] - circumcenter(pts).radius < 1e-3
    for eps in (0.5, 0.1, 0.01):
        tail = next(n for n in range(40)
                    if all(np.linalg.norm(seq[m] - seq[k])
                           < eps * max(radii[m], radii[k])
                           for m in range(n, 40) for k in range(n, 40)))
        assert tail < 40


# ---------------------------------------------------------------- cn

def test_cn_equality_when_z_is_x():
    x = np.array([0.0, 0.0])
    y = np.array([2.0, 0.0])
    rep = check_cn_inequality(x, x, y)
    assert rep.holds and rep.equality
    assert abs(rep.lhs - 1.0) < 1e-12


def test_cn_equality_on_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(500):
        z, x, y = rng.standard_normal((3, 3)) * 4
        rep = check_cn_inequality(z, x, y, tol=1e-12)
        assert rep.holds and rep.equality


def test_cn_degenerate_equal_endpoints():
    z = np.array([1.0, 2.0])
    x = np.array([0.0, 0.0])
    rep = check_cn_inequality(z, x, x)
    assert rep.equality
    assert abs(rep.lhs - np.linalg.norm(z - x)) < 1e-12


# ---------------------------------------------------------------- modulus

def test_modulus_eps_one_respects_cn_bound():
    rep = uniform_convexity_modulus(2000, eps=1.0, dim=2, seed=3)
    assert rep.holds
    assert rep.bound == pytest.approx(math.sqrt(3) / 2)
    assert rep.samples == 2000


def test_modulus_small_eps_ratios_below_one():
    rep = uniform_convexity_modulus(1000, eps=0.05, dim=3, seed=9)
    assert rep.worst_ratio <= 1.0 + 1e-12


def test_diametral_case_on_collinear_fixture():
    # x, y antipodal around z: the midpoint is z itself
    z = np.zeros(2)
    x = np.array([1.5, 0.0])
    y = -x
    assert midpoint_contraction_ratio(z, x, y) == 0.0


def test_modulus_rejects_bad_eps():
    with pytest.raises(InputError):
        uniform_convexity_modulus(10, eps=0.0)
    with pytest.raises(InputError):
        uniform_convexity_modulus(10, eps=2.5)


# ---------------------------------------------------------------- affine defect

def rotation_translation(theta=0.7, shift=(1.0, -2.0)):
    c, s = math.cos(theta), math.sin(theta)
    mat = np.array([[c, -s], [s, c]])
    off = np.asarray(shift)

    def f(v):
        return mat @ v + off
    return f


def test_rigid_motion_has_zero_defect():
    f = rotation_translation()
    assert is_affine(f, dim=2, pairs=64, seed=0)
    x, y = np.array([0.3, 1.0]), np.array([-2.0, 0.5])
    assert affine_defect(f, x, y, isometry=True) < 1e-12


def test_sine_perturbation_has_positive_defect():
    def f(v):
        return v + 0.3 * np.sin(3 * v)
    assert not is_affine(f, dim=2, pairs=32, seed=1)
    x, y = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    assert affine_defect(f, x, y) > 0


def test_isometry_flag_bound_violation_raises():
    def f(v):
        return v + 10.0 * np.sin(20 * v)   # wildly non-isometric
    x, y = np.array([0.0, 0.0]), np.array([np.pi / 20, 0.0])
    assert affine_defect(f, x, y) > np.pi / 40    # defect genuinely too large
    with pytest.raises(InternalCheckError):
        affine_defect(f, x, y, isometry=True)


def test_signed_permutation_under_linf_has_zero_defect():
    off = np.array([0.5, -1.0, 2.0])

    def f(v):
        return np.array([-v[2], v[0], -v[1]]) + off
    assert is_affine(f, dim=3, pairs=64, seed=4, norm="linf")
    rng = np.random.default_rng(6)
    for _ in range(50):
        x, y = rng.standard_normal((2, 3))
        assert affine_defect(f, x, y, norm="linf", isometry=True) < 1e-12


def test_bijective_isometry_fixtures_have_zero_defect_everywhere():
    fixtures = [rotation_translation(0.3, (0, 0)),
                rotation_translation(2.2, (5, 5)),
                lambda v: -v + np.array([1.0, 1.0])]
    rng = np.random.default_rng(8)
    for f in fixtures:
        for _ in range(40):
            x, y = rng.standard_normal((2, 2)) * 3
            assert affine_defect(f, x, y, isometry=True) < 1e-10


def test_vector_norms():
    v = np.array([3.0, -4.0])
    assert vector_norm(v) == 5.0
    assert vector_norm(v, "l1") == 7.0
    assert vector_norm(v, "linf") == 4.0
    assert vector_norm(v, 2) == pytest.approx(5.0)
    with pytest.raises(InputError):
        vector_norm(v, 0.5)
    with pytest.raises(InputError):
        vector_norm(v, "nope")
