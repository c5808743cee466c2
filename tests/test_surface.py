"""Fuchsian group construction, fundamental-domain reduction, tracking."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from hyplyap.hypgeo import DiscPoint, GeometryError, dist_P, mobius_identity, mobius_translation
from hyplyap.surface import (
    DeckWord,
    build_genus2,
    locate,
    reduce_letters,
    track,
)

from scalar_reduction import contains, side_violations


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def octagon(group):
    """The 8 sides as (start, end) vertex pairs: side k runs from vertex
    k - 2 to vertex k - 1, the vertices at angles (2j + 1) pi / 8 on the
    circle of hyperbolic radius group.circumradius."""
    rv = math.tanh(0.5 * group.circumradius)
    v = [DiscPoint.from_complex(rv * cmath.exp(1j * (2 * j + 1) * math.pi / 8.0))
         for j in range(8)]
    return [(v[(k - 2) % 8], v[(k - 1) % 8]) for k in range(1, 9)]


class FakePath:
    def __init__(self, points):
        self.points = points


def sample_geodesic(z0, z1, spacing):
    """Points along the geodesic [z0, z1] at the given spacing (oracle-side
    helper; uses only hypgeo primitives)."""
    from hyplyap.hypgeo import mobius_point_chart

    chart = mobius_point_chart(z0)
    xi = chart.inverse()(z1)
    length = 2.0 * math.atanh(abs(xi))
    n = max(1, int(math.ceil(length / spacing)))
    direction = xi / abs(xi) if abs(xi) > 0 else 1.0
    pts = [chart(direction * math.tanh(0.5 * length * i / n)) for i in range(n + 1)]
    return FakePath(pts)


# ------------------------------------------------------------ construction


def oracle_circumradius():
    # bisection on the vertex-angle condition of the regular octagon,
    # written against hyperbolic trigonometry only
    def vertex_angle(c):
        return 2.0 * math.atan(1.0 / (math.cosh(c) * math.tan(math.pi / 8.0)))

    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if vertex_angle(mid) > math.pi / 4.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_circumradius_bisection_oracle(group):
    # frozen oracle value: acosh(cot^2(pi/8)) = 2.448452447678076
    assert group.circumradius == pytest.approx(2.448452447678076, abs=1e-12)
    assert group.circumradius == pytest.approx(oracle_circumradius(), abs=1e-12)


def test_generator_count_and_pairing(group):
    assert len(group.generators) == 8
    for k in range(4):
        comp = group.generators[k] * group.generators[k + 4]
        assert abs(comp.a - 1.0) + abs(comp.b) <= 1e-10


def test_side_pairing_endpoints(group, octagon):
    for k in range(1, 9):
        gk = group.generators[k - 1]
        a, b = octagon[k - 1]
        ta, tb = gk(a), gk(b)
        c, d = octagon[(k + 4 - 1) % 8]
        err = min(
            abs(ta.z - c.z) + abs(tb.z - d.z),
            abs(ta.z - d.z) + abs(tb.z - c.z),
        )
        assert err <= 1e-9


def test_relator_residual(group):
    assert group.relator_residual() <= 1e-8
    assert len(group.relator.letters) == 8
    # opposite-side pairing: every generator appears once with each sign
    letters = group.relator.letters
    for k in range(1, 5):
        assert letters.count(k) == 1
        assert letters.count(-k) == 1


def test_interior_angle_is_pi_over_4(octagon):
    # angle at the shared vertex of sides 1 and 2, measured between the
    # initial directions of the two geodesic sides
    from hyplyap.hypgeo import mobius_point_chart

    v = octagon[0][1]                # vertex between side 1 and side 2
    inv = mobius_point_chart(v).inverse()

    def initial_direction(other):
        w = inv(other.z)
        return cmath.phase(w)

    a = initial_direction(octagon[0][0])   # along side 1
    b = initial_direction(octagon[1][1])   # along side 2
    angle = abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)
    assert angle == pytest.approx(math.pi / 4.0, abs=1e-9)


def test_export_text_round_trip(group):
    text = group.export_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(lines) == 8
    for k, line in enumerate(lines, start=1):
        name, are, aim, bre, bim = line.split()
        assert name == f"g{k}"
        g = group.generators[k - 1]
        assert float(are) == pytest.approx(g.a.real, abs=1e-16)
        assert float(bim) == pytest.approx(g.b.imag, abs=1e-16)


# ------------------------------------------------------------------ locate


def test_locate_center(group):
    rep, word = locate(0j, group)
    assert rep.z == 0j
    assert word.letters == ()


def test_locate_single_deck_move(group):
    rep, word = locate(group.generators[0](0j), group)
    assert abs(rep.z) <= 1e-12
    assert word.letters == (1,)


def test_locate_two_letter_word_matches_composition(group):
    z = group.generators[1](group.generators[0](0j))
    rep, word = locate(z, group)
    assert abs(rep.z) <= 1e-10
    assert word.letters == (2, 1)
    direct = group.generators[1] * group.generators[0]
    ev = word.evaluate(group)
    assert abs(ev.a - direct.a) + abs(ev.b - direct.b) <= 1e-10


def test_locate_inverse_relation(group):
    rep, word = locate(word_target(group, (-3, 2)), group)
    assert word.letters == (-3, 2)
    assert abs(rep.z) <= 1e-9


def word_target(group, letters):
    m = mobius_identity()
    for l in letters:
        m = m * group.generator(l)
    return m(0j)


def test_tiling_random_points(group):
    rng = np.random.default_rng(23)
    for _ in range(1000):
        r = 0.999 * math.sqrt(rng.random())
        z = r * cmath.exp(2j * math.pi * rng.random())
        rep, word = locate(z, group)
        assert min(side_violations(group, rep.z)) >= -1e-9
        back = word.evaluate(group)(rep.z)
        assert abs(back - z) <= 1e-9 * max(1.0, 1.0 / (1.0 - abs(z)))


def test_locate_at_edge_of_disc(group):
    # |z| = 1 - 2e-15 (hyperbolic radius 34.5): the point is known only to
    # about e^34 eps, so its word is not compared with the scalar loop's;
    # each reduction must settle within the kernel's 64 rounds, one letter
    # per round, and land in the octagon
    rng = np.random.default_rng(20151212)
    for phi in 2.0 * math.pi * rng.random(2000):
        rep, word = locate((1.0 - 2e-15) * cmath.exp(1j * phi), group)
        assert contains(group, rep.z) and len(word) <= 64, phi


def test_locate_deterministic_near_boundary(group):
    # a point essentially on side 1: repeated calls must agree exactly
    z = group.neighbors[0] / 2.0 + 1e-13
    rep1, w1 = locate(z, group)
    rep2, w2 = locate(z, group)
    assert rep1.z == rep2.z
    assert w1.letters == w2.letters


@pytest.mark.parametrize("z", [1 + 0j, -1j, 2 + 0j, complex(1.0 - 1e-16, 0.0), complex("nan"),
                               complex(0.1, float("nan"))],
                         ids=["1", "-i", "2", "1-1e-16", "nan", "nan-im"])
def test_locate_refuses_points_off_the_disc(group, z):
    # refused as given, before the kernel reduces anything: no warning and no
    # complaint about a point the reduction moved
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match=re.escape(f"point {z} lies outside")):
            locate(z, group)


# --------------------------------------------------------------- DeckWord


def test_reduce_letters():
    assert reduce_letters([1, -1]) == ()
    assert reduce_letters([2, 1, -1, -2, 3]) == (3,)
    assert reduce_letters([1, 2, -2, 2]) == (1, 2)


def test_deckword_empty_is_identity(group):
    m = DeckWord().evaluate(group)
    assert abs(m.a - 1.0) + abs(m.b) <= 1e-15


def test_deckword_inverse(group):
    w = DeckWord((2, -3, 1, 1))
    prod = w * w.inverse()
    assert prod.letters == ()


def test_deckword_rejects_out_of_range():
    with pytest.raises(ValueError):
        DeckWord((5,))
    with pytest.raises(ValueError):
        DeckWord((0,))


# ------------------------------------------------------------------ track


def test_track_constant_path(group):
    path = FakePath([DiscPoint(0.1, 0.05)] * 4)
    assert track(path, group).letters == ()


def test_track_geodesic_to_g1_origin(group):
    z1 = group.generators[0](0j)
    path = sample_geodesic(0j, z1, 0.05)
    assert track(path, group).letters == (1,)


def test_track_loop_across_paired_sides(group):
    # out across one side and back across its partner: trivial class
    z1 = group.generators[0](0j)
    out = sample_geodesic(0j, z1, 0.05).points
    back = sample_geodesic(z1, 0j, 0.05).points
    path = FakePath(out + back[1:])
    assert track(path, group).letters == ()


def test_track_rediscretization_same_word(group):
    # homotopy law: two discretizations of one segment, identical words
    target = word_target(group, (2, -1))
    w1 = track(sample_geodesic(0j, target, 0.05), group)
    w2 = track(sample_geodesic(0j, target, 0.02), group)
    assert w1.letters == w2.letters == (2, -1)


def test_track_concatenation_property(group):
    mid = word_target(group, (1,))
    end = word_target(group, (1, 3))
    head = sample_geodesic(0j, mid, 0.04)
    tail = sample_geodesic(mid, end, 0.04)
    full = FakePath(head.points + tail.points[1:])
    w_full = track(full, group)
    w_head = track(head, group)
    w_tail = track(tail, group)
    assert (w_tail * w_head).letters == w_full.letters


def test_track_word_endpoint_consistency(group):
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        b = word_target(group, tuple(rng.choice([-2, 1, 3], size=2)))
        path = sample_geodesic(a, b, 0.05)
        w = track(path, group)
        rep_a, wa = locate(a, group)
        rep_b, wb = locate(b, group)
        # w * wa and wb evaluate to the same deck element
        lhs = (w * wa).evaluate(group)
        rhs = wb.evaluate(group)
        err = min(
            abs(lhs.a - rhs.a) + abs(lhs.b - rhs.b),
            abs(lhs.a + rhs.a) + abs(lhs.b + rhs.b),
        )
        assert err <= 1e-8


def test_track_long_segment_error(group):
    # a single segment far longer than the step of any sampler tracks fine
    far = mobius_translation(0.0, 1.0)(DiscPoint.origin())
    path = FakePath([DiscPoint.origin(), far])
    assert track(path, group).letters == ()


def test_track_subdivision_matches_fine_sampling(group):
    target = word_target(group, (4, 2))
    coarse = sample_geodesic(0j, target, 0.5)     # long segments
    fine = sample_geodesic(0j, target, 0.02)
    assert track(coarse, group).letters == track(fine, group).letters
