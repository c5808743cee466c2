"""Cocycle laws, specializations, conversion rules, regularity probes."""

import math

import numpy as np
import pytest

from hyplyap.cocycle import (
    CocycleError,
    Representation,
    cocycle_of_word,
    diagonal_representation,
    estimate_regularity,
    evaluate,
    fuchsian_representation,
    specialize,
    trivial_representation,
)
from hyplyap.diffusion import RngStream, dist_field, sample_path
from hyplyap.hypgeo import DiscPoint, dist_P
from hyplyap.surface import DeckWord, build_genus2, locate


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def rep22():
    return diagonal_representation([2.0, 0.5])


def brownian_paths(n, t, seed, step=0.05):
    return [
        sample_path(DiscPoint.origin(), t, step, RngStream(seed, i)) for i in range(n)
    ]


class FakePath:
    def __init__(self, points):
        self.points = points


def sample_geodesic(z0, z1, spacing):
    from hyplyap.hypgeo import mobius_point_chart

    chart = mobius_point_chart(z0)
    xi = chart.inverse()(z1)
    length = 2.0 * math.atanh(abs(xi))
    n = max(1, int(math.ceil(length / spacing)))
    direction = xi / abs(xi) if abs(xi) > 0 else 1.0
    pts = [chart(direction * math.tanh(0.5 * length * i / n)) for i in range(n + 1)]
    return FakePath(pts)


def word_target(group, letters):
    from hyplyap.hypgeo import mobius_identity

    m = mobius_identity()
    for l in letters:
        m = m * group.generator(l)
    return m(0j)


# --------------------------------------------------------- representations


def test_representation_validation(group):
    with pytest.raises(CocycleError):
        Representation.from_matrices(2, "real", [np.eye(2)] * 3, group)
    with pytest.raises(CocycleError):
        Representation.from_matrices(2, "rational", [np.eye(2)] * 4, group)
    with pytest.raises(CocycleError):
        Representation.from_matrices(
            2, "real", [np.array([[1.0, 0.0], [0.0, 0.0]])] + [np.eye(2)] * 3, group
        )


def test_relator_residual_reads_the_group_relator_without_a_group(group):
    # a representation built without a group is checked against the
    # octagon's vertex cycle, the relator build_genus2() carries, so the
    # residuals agree on projective-only and exact images alike
    rng = np.random.default_rng(3)
    generic = [np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(4)]
    uniformizing = fuchsian_representation(group).images
    for field, mats in (("real", generic), ("complex", uniformizing)):
        with_group = Representation.from_matrices(2, field, mats, group)
        without = Representation.from_matrices(2, field, mats)
        assert with_group.relator_residual == without.relator_residual
        assert with_group.exact == (field == "complex")


def test_diagonal_rep_is_exact(group):
    rep = diagonal_representation([2.0, 0.5])
    assert rep.exact
    assert rep.relator_residual <= 1e-12


def test_generic_rep_is_projective_only(group):
    # random images almost surely violate the surface relation
    rng = np.random.default_rng(2)
    mats = [np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for _ in range(4)]
    rep = Representation.from_matrices(2, "real", mats, group)
    assert not rep.exact
    with pytest.raises(CocycleError):
        cocycle_of_word(rep, DeckWord((1,)))


def test_commuting_exact_rep_accepted(group):
    # images that commute satisfy every surface relation
    a = np.diag([3.0, 1.0, 1.0 / 3.0])
    b = np.diag([1.0, 2.0, 0.5])
    rep = Representation.from_matrices(3, "real", [a, b, np.eye(3), np.eye(3)], group)
    assert rep.exact


def test_complex_field_rep(group):
    u = np.array([[np.exp(1j * 0.7), 0.0], [0.0, np.exp(-1j * 0.7)]])
    rep = Representation.from_matrices(2, "complex", [u, np.eye(2), np.eye(2), np.eye(2)], group)
    assert rep.exact
    val = cocycle_of_word(rep, DeckWord((1, 1)))
    assert np.linalg.norm(val @ np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_fuchsian_rep_is_exact_with_distance_norms(group):
    # |rho(gamma)| = exp(d(0, gamma 0) / 2): the norm identity behind the
    # +-1/2 spectrum of the uniformizing representation
    rep = fuchsian_representation(group)
    assert rep.field == "complex" and rep.relator_residual <= 1e-12
    gen = np.random.default_rng(5)
    for _ in range(20):
        word = DeckWord(tuple(int(gen.choice([1, 2, 3, 4, -1, -2, -3, -4])) for _ in range(6)))
        got = math.log(np.linalg.norm(cocycle_of_word(rep, word), 2))
        assert got == pytest.approx(0.5 * dist_P(0j, word.evaluate(group)(0j)), abs=1e-9)


# ---------------------------------------------------------- word products


def test_empty_word_is_identity(rep22):
    val = cocycle_of_word(rep22, DeckWord())
    assert np.array_equal(val, np.eye(2))


def test_single_letter(rep22):
    val = cocycle_of_word(rep22, DeckWord((1,)))
    assert np.allclose(val, np.diag([2.0, 0.5]))


def test_two_letter_product_matches_direct(group):
    rng = np.random.default_rng(3)
    # exact rep built from commuting rotations to keep the relator happy
    c, s = math.cos(0.4), math.sin(0.4)
    r1 = np.array([[c, -s], [s, c]])
    rep = Representation.from_matrices(2, "real", [r1, r1 @ r1, np.eye(2), np.eye(2)], group)
    val = cocycle_of_word(rep, DeckWord((2, 1)))
    direct = rep.images[1] @ rep.images[0]
    assert np.allclose(val, direct, atol=1e-12)


def test_inverse_letters(rep22):
    val = cocycle_of_word(rep22, DeckWord((-1,)))
    assert np.allclose(val, np.diag([0.5, 2.0]))


def test_long_word_product_raises():
    # a 70-letter word of diag(1e5, 1e-5) has norm 1e350: a word's product
    # has no log-scale spill, so it raises (without a RuntimeWarning)
    # instead of returning inf
    rep = Representation.from_matrices(2, "real", [np.diag([1e5, 1e-5])] * 4)
    with pytest.raises(CocycleError, match="ensemble accumulator"):
        cocycle_of_word(rep, DeckWord((1,) * 70))
    # 61 letters, norm 1e305, are still a finite product
    value = cocycle_of_word(rep, DeckWord((1,) * 61))
    assert math.log(np.linalg.norm(value, 2)) == pytest.approx(61.0 * math.log(1e5), rel=1e-12)


# ------------------------------------------------------------ path values


def test_trivial_rep_any_path(group):
    rep = trivial_representation(3)
    path = sample_path(DiscPoint.origin(), 3.0, 0.05, RngStream(77))
    val = evaluate(rep, path, group)
    assert np.array_equal(val, np.eye(3))


def test_split_path_multiplicative_law(group, rep22):
    # A(full) = A(tail) A(head) exactly, on random Brownian paths
    for i, path in enumerate(brownian_paths(100, 2.0, seed=100)):
        mid = len(path.points) // 2
        head = path.subpath(0, mid)
        tail = path.subpath(mid, len(path.points) - 1)
        full_v = evaluate(rep22, path, group)
        prod = evaluate(rep22, tail, group) @ evaluate(rep22, head, group)
        err = np.max(np.abs(full_v - prod))
        assert err <= 1e-10, f"path {i}: split error {err}"


def test_homotopy_law_rediscretization(group, rep22):
    # same geodesic segment, two spacings: identical words, identical values
    target = word_target(group, (1, -3, 2))
    v1 = evaluate(rep22, sample_geodesic(0j, target, 0.05), group)
    v2 = evaluate(rep22, sample_geodesic(0j, target, 0.02), group)
    assert np.array_equal(v1, v2)


def test_determinant_additivity(group):
    rep = Representation.from_matrices(
        2,
        "real",
        [np.diag([2.0, 1.0]), np.diag([1.0, 3.0]), np.eye(2), np.eye(2)],
        build_genus2(),
    )
    for path in brownian_paths(10, 2.0, seed=55):
        from hyplyap.surface import track

        word = track(path, group)
        val = cocycle_of_word(rep, word)
        expected = sum(
            math.copysign(1.0, l) * math.log(abs(np.linalg.det(rep.images[abs(l) - 1])))
            for l in word.letters
        )
        assert np.linalg.slogdet(val)[1] == pytest.approx(expected, abs=1e-9)


# -------------------------------------------------------- specializations


def test_specialization_trivial_rep(group):
    spec = specialize(trivial_representation(2), [1.0, 0.0], group)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert spec(z) == 0.0


def test_specialization_vanishes_at_base(group, rep22):
    for u in ([1.0, 0.0], [0.3, -2.0], [1.0, 1.0]):
        spec = specialize(rep22, u, group)
        assert spec(DiscPoint.origin()) == 0.0


def test_specialization_projective_invariance(group, rep22):
    rng = np.random.default_rng(6)
    s1 = specialize(rep22, [0.6, 0.8], group)
    s2 = specialize(rep22, [-3.0 * 0.6, -3.0 * 0.8], group)
    for _ in range(20):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert abs(s1(z) - s2(z)) <= 1e-12


def test_specialization_known_value(group, rep22):
    # at g1(0) the word is [1]; growth of e1 under diag(2, 1/2) is log 2
    z = group.generators[0](0j)
    spec = specialize(rep22, [1.0, 0.0], group)
    assert spec(z) == pytest.approx(math.log(2.0), abs=1e-12)


def test_conversion_rule_change_of_base(group, rep22):
    # f_{y,v}(zeta) = f_{x,u}(zeta) - f_{x,u}(eta) for eta = g1(0), v = [A u]
    from hyplyap.cocycle import convert_direction

    eta = group.generators[0](0j)
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    f_xu = specialize(rep22, u, group)
    v = convert_direction(rep22, u, eta, group)
    shifted = specialize(rep22, v, group, base=eta)
    rng = np.random.default_rng(7)
    f_eta = f_xu(eta)
    for _ in range(50):
        z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        assert shifted(z) == pytest.approx(f_xu(z) - f_eta, abs=1e-10)


# -------------------------------------------------------------- regularity


def test_regularity_constant_field(group):
    rep = trivial_representation(2)
    spec = specialize(rep, [1.0, 0.0], group)
    out = estimate_regularity(spec, 400, 6.0, RngStream(8))
    assert out.alpha_fit == 0.0
    assert out.c_fit == 0.0
    assert out.lipschitz_c == 0.0


def test_regularity_distance_field():
    # dist is exactly 1-Lipschitz; the envelope ratio cannot exceed 1
    f = dist_field()
    out = estimate_regularity(f, 2000, 6.0, RngStream(9))
    assert out.lipschitz_c <= 1.0 + 0.05
    assert out.lipschitz_c >= 0.7
    assert 0.5 <= out.alpha_fit <= 1.5


def test_regularity_diag_rep_finite_and_stable(group, rep22):
    spec = specialize(rep22, [1.0, 0.0], group)
    values = []
    for seed in range(5):
        out = estimate_regularity(spec, 2000, 6.0, RngStream(200 + seed))
        assert math.isfinite(out.lipschitz_c)
        values.append(out.lipschitz_c)
    spread = (max(values) - min(values)) / (sum(values) / len(values))
    assert spread <= 0.2, f"lipschitz estimates {values} spread {spread:.3f}"


def test_regularity_needs_pairs():
    with pytest.raises(CocycleError):
        estimate_regularity(dist_field(), 50, 4.0, RngStream(1))
