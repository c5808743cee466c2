"""Geometry unit tests: distances, conversions, rays, Mobius group laws.

The radius tanh(R/2) and the geodesic rays are realized by the maps that
build the octagon group: a ray from a base point is the translation of 0
carried to the base by its point chart.

Frozen constants were computed with the independent oracles in this file
(bisection inversion, Mobius reduction) before the library existed.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyplyap.hypgeo import (
    DiscPoint,
    GeometryError,
    MobiusMap,
    dist_P,
    mobius_identity,
    mobius_point_chart,
    mobius_translation,
)

LOG3 = math.log(3.0)


# ---------------------------------------------------------------- oracles


def oracle_radial_dist(r):
    return math.log((1.0 + r) / (1.0 - r))


def oracle_bisect_radius(R, iters=200):
    lo, hi = 0.0, 1.0 - 1e-16
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if oracle_radial_dist(mid) < R:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_mobius_reduced_dist(z, w):
    # move z to 0 by an explicit isometry, then use the radial formula
    m = (w - z) / (1.0 - z.conjugate() * w)
    return oracle_radial_dist(abs(m))


def rotation(angle):
    """Rotation of the disc about 0 by `angle` radians."""
    return MobiusMap(cmath.exp(0.5j * angle), 0.0j)


def ray_point(base, theta, R):
    """Point at distance R from base along leaf-direction theta."""
    return (mobius_point_chart(base) * mobius_translation(theta, R))(DiscPoint.origin())


def random_points(rng, n, rmax=0.97):
    r = rmax * np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * phi)


def random_maps(rng, n):
    maps = []
    for _ in range(n):
        theta = rng.random()
        length = 3.0 * rng.random()
        rot = 2.0 * np.pi * rng.random()
        maps.append(mobius_translation(theta, length) * rotation(rot))
    return maps


# ----------------------------------------------------------------- dist_P


def test_dist_coincident_points_is_zero():
    assert dist_P(DiscPoint(0, 0), DiscPoint(0, 0)) == 0.0


def test_dist_radial_paper_value():
    # dist_P(0, 0.5) = log 3
    assert dist_P(0j, 0.5 + 0j) == pytest.approx(LOG3, abs=1e-14)


def test_dist_mobius_reduction_oracle():
    # frozen from oracle_mobius_reduced_dist(0.3, 0.3j)
    assert dist_P(0.3 + 0j, 0.3j) == pytest.approx(0.901599472981844, abs=1e-13)
    assert dist_P(0.3 + 0j, 0.3j) == pytest.approx(
        oracle_mobius_reduced_dist(0.3 + 0j, 0.3j), abs=1e-13
    )


def test_dist_symmetry_and_positivity():
    rng = np.random.default_rng(7)
    zs = random_points(rng, 200)
    ws = random_points(rng, 200)
    for z, w in zip(zs, ws):
        d1, d2 = dist_P(z, w), dist_P(w, z)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert d1 >= 0.0


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        a, b, c = random_points(rng, 3)
        slack = dist_P(a, b) + dist_P(b, c) - dist_P(a, c)
        assert slack >= -1e-10


def test_rejects_points_on_or_outside_circle():
    with pytest.raises(GeometryError):
        DiscPoint(1.0, 0.0)
    with pytest.raises(GeometryError):
        DiscPoint(1.0 - 1e-16, 0.0)
    with pytest.raises(GeometryError):
        dist_P(1.2 + 0j, 0j)


@pytest.mark.parametrize("z", [complex("nan"), complex(0.1, math.nan), complex(math.nan, math.inf)],
                         ids=["nan", "nan-im", "nan-inf"])
def test_rejects_nan_points(z):
    # a nan fails every comparison, so the disc test must not read "abs(z) >= bound"
    with pytest.raises(GeometryError):
        dist_P(z, 0j)
    with pytest.raises(GeometryError):
        dist_P(0.5 + 0j, z)
    with pytest.raises(GeometryError):
        mobius_translation(0.25, 1.0)(z)


# ------------------------------------------------ radius r = tanh(R/2)
# the Euclidean radius of the hyperbolic circle of radius R about 0 is
# where the translation by R moves 0; the round trips check dist_P against
# the conversion r = tanh(R/2) the package applies inline


def test_radius_degenerate():
    assert mobius_translation(0.3, 0.0)(0j) == 0j


def test_radius_paper_value():
    assert abs(mobius_translation(0.3, LOG3)(0j)) == pytest.approx(0.5, abs=1e-15)


def test_radius_bisection_oracle():
    # frozen from oracle_bisect_radius(2.0)
    r = mobius_translation(0.0, 2.0)(0j)
    assert r == pytest.approx(0.7615941559557649, abs=1e-14)
    assert r == pytest.approx(oracle_bisect_radius(2.0), abs=1e-13)


def test_radius_rejects_bad_input():
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(GeometryError):
            mobius_translation(0.0, bad)


def test_conversion_round_trip():
    for r in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]:
        assert math.tanh(0.5 * dist_P(0j, r + 0j)) == pytest.approx(r, abs=1e-12)


# beyond R ~ 10.5 the double-precision gap to the unit circle caps the
# achievable round-trip accuracy at ~exp(R) * eps / 4
@given(st.floats(min_value=0.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(R):
    assert abs(dist_P(0j, math.tanh(0.5 * R) + 0j) - R) <= 1e-12


# ---------------------------------------------------------- geodesic rays


def test_ray_origin():
    assert ray_point(DiscPoint.origin(), 0.37, 0.0).z == 0j


def test_ray_paper_value_quarter_turn():
    assert ray_point(DiscPoint.origin(), 0.25, LOG3).z == pytest.approx(0.5j, abs=1e-14)


def test_ray_derived_value_half_turn():
    p = ray_point(DiscPoint.origin(), 0.5, 2.0)
    assert p.z == pytest.approx(-0.7615941559557649, abs=1e-13)


def test_ray_unit_speed_grid():
    for theta in [0.0, 0.13, 0.25, 0.5, 0.77]:
        for base in [DiscPoint.origin(), DiscPoint(0.3, -0.2), DiscPoint(-0.6, 0.5)]:
            for R1, R2 in [(0.0, 1.0), (0.5, 2.5), (1.0, 7.0), (3.0, 3.0)]:
                d = dist_P(ray_point(base, theta, R1), ray_point(base, theta, R2))
                assert d == pytest.approx(abs(R1 - R2), abs=1e-10)


def test_ray_base_recovered_at_zero():
    base = DiscPoint(0.41, -0.33)
    assert ray_point(base, 0.8, 0.0).z == pytest.approx(base.z, abs=1e-15)


# ------------------------------------------------------------ Mobius maps


def test_identity_map():
    z = 0.3 + 0.2j
    assert mobius_identity()(z) == pytest.approx(z, abs=1e-15)


def test_quarter_turn_rotation():
    rot = rotation(math.pi / 2.0)
    assert rot(0.5 + 0j) == pytest.approx(0.5j, abs=1e-15)


def test_translation_derived_value():
    # frozen from oracle_bisect_radius(1.0) = tanh(1/2)
    t = mobius_translation(0.0, 1.0)
    assert t(0j) == pytest.approx(0.46211715726000974, abs=1e-14)
    assert t(0j) == pytest.approx(oracle_bisect_radius(1.0), abs=1e-13)


def test_point_chart_positive_derivative():
    base = 0.3 - 0.55j
    m = mobius_point_chart(base)
    assert m(0j) == pytest.approx(base, abs=1e-15)
    # derivative at 0 must be real positive: the rotation fix of the chart
    eps = 1e-7
    der = (m(eps + 0j) - m(0j)) / eps
    assert abs(der.imag) < 1e-6
    assert der.real > 0.0


def test_group_laws():
    rng = np.random.default_rng(3)
    maps = random_maps(rng, 30)
    zs = random_points(rng, 30)
    for m, z in zip(maps, zs):
        inv = m.inverse()
        w = inv(m(z))
        assert w == pytest.approx(z, abs=1e-12)
        ident = m * inv
        assert ident(z) == pytest.approx(z, abs=1e-12)


def test_composition_associative_and_consistent():
    rng = np.random.default_rng(5)
    m1, m2, m3 = random_maps(rng, 3)
    z = 0.21 - 0.35j
    lhs = ((m1 * m2) * m3)(z)
    rhs = (m1 * (m2 * m3))(z)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert (m1 * m2)(z) == pytest.approx(m1(m2(z)), abs=1e-12)


def test_isometry_invariance_random_pairs():
    rng = np.random.default_rng(13)
    maps = random_maps(rng, 50)
    for i, m in enumerate(maps):
        zs = random_points(rng, 20)
        ws = random_points(rng, 20)
        for z, w in zip(zs, ws):
            assert abs(dist_P(m(z), m(w)) - dist_P(z, w)) <= 1e-10


def test_degenerate_coefficients_rejected():
    with pytest.raises(GeometryError):
        MobiusMap(0.5 + 0j, 0.5 + 0j)  # det = 0
    with pytest.raises(GeometryError):
        MobiusMap(0.5 + 0j, 1.0 + 0j)  # det < 0


def test_normalization_after_composition():
    # moderate chain: recomputing the determinant cancels |a|^2 against
    # |b|^2, so keep |a| small enough that the check stays meaningful
    rng = np.random.default_rng(17)
    m = mobius_identity()
    for _ in range(50):
        theta = rng.random()
        m = m * mobius_translation(theta, 0.4 * rng.random()) * rotation(rng.random())
    det = abs(m.a) ** 2 - abs(m.b) ** 2
    assert det == pytest.approx(1.0, abs=1e-12)
