"""The vectorized ensemble engine against the scalar reference code.

The engine has a geometry layer, surface._reduce_ensemble, which emits deck
letters, and an algebra layer, cocycle._MatrixAccumulator, which folds them
into cocycle products; lyapunov walks ensembles on top of both.  The
reduction kernel must reproduce the scalar reduction of scalar_reduction.py
walker by walker, the inscribed disc it never tests must lie inside the
octagon, the accumulator must reproduce cocycle_of_word on each walker's
recorded word, the cadence walk must keep its reduction invariants and
lift to Brownian motion, its block draws must reproduce one draw per gap
bit for bit, every step walker's block draws must reproduce one draw per
exact jump bit for bit, a step walker must refuse a jump it cannot draw
before drawing, and Specialization.values and Specialization.__call__
must reproduce the specialization computed from the scalar reduction and
cocycle_of_word.
"""

import cmath
import math

import numpy as np
import pytest

from hyplyap.cocycle import (
    Representation,
    _MatrixAccumulator,
    cocycle_of_word,
    estimate_regularity,
    specialize,
)
from hyplyap import diffusion, lyapunov
from hyplyap.diffusion import (
    DiffusionError,
    RngStream,
    _disc_jump,
    _disc_step,
    _polar_step,
    _radial_quantile,
    sample_heat_endpoints,
    sample_path,
    sample_polar_endpoints,
)
from hyplyap.hypgeo import DiscPoint
from hyplyap.lyapunov import _brownian_walk
from hyplyap.surface import _SIDE_TOL, DeckWord, _reduce_ensemble, build_genus2

from scalar_reduction import contains, scalar_locate


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def data(group):
    return group._layout


@pytest.fixture(scope="module")
def rep_track(group):
    """Exact non-commuting pair: rho(g1) = rho(g4), rho(g2) = rho(g3)."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.5, 1.0]])
    return Representation.from_matrices(2, "real", [a, b, b, a], group)


class _Recorder:
    """Accumulator that records each walker's letters in crossing order and
    forwards every round to the accumulators it wraps."""

    def __init__(self, data, n, *accs):
        self.side_letters = data.letters
        self.letters = [[] for _ in range(n)]
        self.accs = accs

    def apply(self, first, idx):
        for j, k in zip(first, idx):
            self.letters[k].append(self.side_letters[j])
        for acc in self.accs:
            acc.apply(first, idx)


def test_reduction_matches_scalar_locate(group, data):
    gen = np.random.default_rng(20150318)
    n = 2000
    z = 0.999 * np.sqrt(gen.random(n)) * np.exp(2j * np.pi * gen.random(n))
    reduced = z.copy()
    rec = _Recorder(data, n)
    _reduce_ensemble(data, reduced, acc=rec)
    assert max(len(w) for w in rec.letters) >= 4
    for k in range(n):
        rep, word = scalar_locate(complex(z[k]), group)
        assert DeckWord(tuple(rec.letters[k])) == word, k
        assert abs(rep.z - reduced[k]) <= 1e-12, k


def _near_tie_points(group):
    """Points on, a few ulps off, and up to 2 _SIDE_TOL off each of the 8
    sides (at 5 places along it) and each of the 8 vertices (in 16
    directions).  Side k lies on the circle |z - c| = r with c = q_k / Q^2,
    r = sqrt(1 / Q^2 - 1), the domain outside it, and S_k(c + (r + d) e^{i
    phi}) = Q^2 (2 r d + d^2), so the offsets d are set to put S_k at the
    listed multiples of _SIDE_TOL (the threshold itself, -1, is avoided:
    there rounding alone decides)."""
    qq = math.tanh(group.inradius) ** 2
    r = math.sqrt(1.0 / qq - 1.0)
    rv = math.tanh(0.5 * group.circumradius)
    vertices = [rv * cmath.exp(1j * (2 * j + 1) * math.pi / 8.0) for j in range(8)]
    ulp = np.spacing(1.0)
    offsets = [s * _SIDE_TOL / (2.0 * qq * r) for s in (-2.0, -1.5, -1.25, -0.75, -0.5, 0.5, 2.0)]
    offsets += [k * ulp for k in range(-3, 4)]
    points = []
    for k, q in enumerate(group.neighbors):
        c = q / qq
        # the side runs between vertices k - 1 and k (0-based) seen from c
        half = abs(cmath.phase((vertices[k - 1] - c) / (vertices[k] - c))) / 2.0
        mid = cmath.phase(-c)
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            e = cmath.exp(1j * (mid + t * half))
            points += [c + (r + d) * e for d in offsets]
    for v in vertices:
        for theta in 2.0 * math.pi * np.arange(16) / 16.0:
            e = cmath.exp(1j * theta)
            points += [v + d * e for d in (ulp, 3.0 * ulp, 0.5 * _SIDE_TOL, 2.0 * _SIDE_TOL)]
        points.append(v)
    return np.array(points)


def test_near_tie_points_match_scalar_locate(group, data):
    # the kernel's side test rounds differently from the reference's
    # |z - q_j|^2 form; at points a few ulps and a few _SIDE_TOL from the
    # sides and vertices it must still make the same decisions
    z = _near_tie_points(group)
    reduced = z.copy()
    rec = _Recorder(data, z.size)
    _reduce_ensemble(data, reduced, acc=rec)
    lengths = [len(w) for w in rec.letters]
    assert min(lengths) == 0 and max(lengths) >= 2
    for k in range(z.size):
        rep, word = scalar_locate(complex(z[k]), group)
        assert DeckWord(tuple(rec.letters[k])) == word, (k, z[k])
        assert abs(rep.z - reduced[k]) <= 1e-12, (k, z[k])


def test_inscribed_disc_lies_in_octagon(group, data):
    # the kernel never tests walkers with |z| <= inner_r
    phis = 2.0 * np.pi * np.arange(4001) / 4001
    assert all(contains(group, data.inner_r * cmath.exp(1j * phi)) for phi in phis)
    # and the disc is the largest one: it touches every side at its midpoint
    for j in range(8):
        assert not contains(group, data.inner_r * (1.0 + 1e-6) * cmath.exp(1j * j * math.pi / 4.0))


def test_accumulator_matches_scalar_cocycles(data, rep_track):
    n = 200
    acc = _MatrixAccumulator(rep_track, data, n)
    rec = _Recorder(data, n, acc)
    for _ in _brownian_walk(data, rec, np.random.default_rng(7), n, 6.0):
        pass
    assert sum(len(w) >= 3 for w in rec.letters) > n // 4
    for k in range(n):
        want = cocycle_of_word(rep_track, DeckWord(tuple(rec.letters[k])))
        assert np.linalg.norm(acc.m[k] - want) <= 1e-12 * np.linalg.norm(want), k


@pytest.mark.parametrize("start, t", [(0j, 5.0), (0.99 * cmath.exp(0.7j), 5.0), (0j, 5.25)])
def test_cadence_walk_invariants(group, data, rep_track, start, t):
    # the walk takes ceil(t / 0.5) gaps (t = 5.25: 11 gaps of 0.477), and
    # after each one every walker is in the closed octagon; the product is
    # the cocycle of the letters the walk reported
    n = 500
    acc = _MatrixAccumulator(rep_track, data, n)
    rec = _Recorder(data, n, acc)
    gaps = 0
    for z in _brownian_walk(data, rec, np.random.default_rng(11), n, t, start):
        gaps += 1
        assert all(contains(group, complex(w)) for w in z), gaps
    assert gaps == math.ceil(t / lyapunov._REDUCE_EVERY)
    assert sum(len(w) >= 3 for w in rec.letters) > n // 4
    for k in range(n):
        want = cocycle_of_word(rep_track, DeckWord(tuple(rec.letters[k])))
        assert np.linalg.norm(acc.m[k] - want) <= 1e-12 * np.linalg.norm(want), k


@pytest.mark.parametrize("t", [0.0, 0.005, math.nan, math.inf])
def test_cadence_walk_refuses_gaps_below_kernel_range(data, rep_track, t):
    acc = _MatrixAccumulator(rep_track, data, 10)
    with pytest.raises(lyapunov.LyapunovError, match="needs finite t >= 0.01"):
        next(_brownian_walk(data, acc, np.random.default_rng(1), 10, t))


def test_cadence_walk_lifts_to_brownian_motion(group, data):
    # the reduced chain, lifted back by its word, has Brownian motion's law:
    # at t = 5 the lifted endpoint's distance from the origin against exact
    # endpoints on another stream, two-sample KS at the 1% critical value
    # 1.628 sqrt(2 / n)
    n, t = 4000, 5.0
    rec = _Recorder(data, n)
    for z in _brownian_walk(data, rec, RngStream(38).generator(), n, t):
        pass
    lifted = np.array([DeckWord(tuple(w)).evaluate(group)(complex(r))
                       for w, r in zip(rec.letters, z)])
    walked = np.sort(2.0 * np.arctanh(np.abs(lifted)))
    exact = np.sort(sample_heat_endpoints(n, t, RngStream(39).generator())[0][-1])
    grid = np.concatenate([walked, exact])
    d = np.max(np.abs(np.searchsorted(walked, grid, side="right")
                      - np.searchsorted(exact, grid, side="right"))) / n
    assert d <= 1.628 * math.sqrt(2.0 / n)


class _DrawSpy:
    """A generator that records the shape of each uniform draw."""

    def __init__(self, gen):
        self.gen, self.shapes = gen, []

    def random(self, shape):
        self.shapes.append(shape)
        return self.gen.random(shape)


def test_block_draws_match_per_step_draws(data, rep_track):
    # the walk draws a block of gaps at once: at n = 2000, 2 gaps of 8000
    # uniforms, and t = 5.25 takes 11 gaps, so the last block is short.  Its
    # uniforms, and the positions and products after every gap, equal bit
    # for bit those of one (2, n) draw per gap
    n, t = 2000, 5.25
    gaps = math.ceil(t / lyapunov._REDUCE_EVERY)
    spy = _DrawSpy(np.random.default_rng(12))
    acc = _MatrixAccumulator(rep_track, data, n)
    walk = _brownian_walk(data, acc, spy, n, t)
    ref_acc = _MatrixAccumulator(rep_track, data, n)
    z_ref = np.zeros(n, complex)
    _reduce_ensemble(data, z_ref)
    ref = np.random.default_rng(12)
    for i, z in enumerate(walk, start=1):
        u = ref.random((2, n))
        angle = 2.0 * math.pi * u[1]
        xi = _disc_jump(np.cos(angle), np.sin(angle), _radial_quantile(t / gaps, u[0]))
        z_ref = _disc_step(z_ref, xi)
        _reduce_ensemble(data, z_ref, acc=ref_acc)
        assert np.array_equal(z, z_ref), i
        assert np.array_equal(acc.m, ref_acc.m), i
    assert i == gaps
    assert spy.shapes == [(2, 2, n)] * 5 + [(1, 2, n)]


@pytest.mark.parametrize("walker, n", [
    pytest.param(walker, n, id=f"{walker}-{n}")
    for walker in ("brownian_walk", "polar_endpoints")
    for n in (2000, 300, 5000)
] + [pytest.param("sample_path", 1, id="sample_path-1")])
def test_walk_draws_two_normals_per_path_step(data, rep_track, walker, n):
    # every walker draws two uniforms per path and jump: the cadence walk
    # takes its 11 gaps of t / 11, and the step walkers cut each checkpoint
    # gap into ceil(gap / step) jumps.  n = 300 draws blocks of 13 jumps,
    # n = 2000 of 2 and n = 5000 of 1
    t, step = 5.25, 0.05
    gen, ref = np.random.default_rng(13), np.random.default_rng(13)
    if walker == "brownian_walk":
        acc = _MatrixAccumulator(rep_track, data, n)
        for _ in _brownian_walk(data, acc, gen, n, t):
            pass
        jumps = math.ceil(t / 0.5)
    elif walker == "polar_endpoints":
        sample_polar_endpoints(n, t, step, gen, checkpoints=[1.0, 5.25])
        jumps = math.ceil(1.0 / step) + math.ceil((5.25 - 1.0) / step)
    else:
        sample_path(DiscPoint.origin(), t, step, gen)
        jumps = math.ceil(t / step)
    ref.random(2 * n * jumps)
    assert np.array_equal(gen.random(16), ref.random(16))


def _jumps(gen, n, gap, k):
    """The per-jump reference draw: (cos, sin, length) for each of k exact
    jumps of time gap of an n-walker ensemble, one (2, n) draw per jump."""
    for _ in range(k):
        u = gen.random((2, n))
        angle = 2.0 * math.pi * u[1]
        yield np.cos(angle), np.sin(angle), _radial_quantile(gap, u[0])


@pytest.mark.parametrize("n", [300, 5000])
def test_polar_walker_blocks_match_per_step_draws(n):
    # n = 300 takes blocks of 13 jumps, cut short at the checkpoint t = 1.03;
    # n = 5000 takes one jump per block.  The gaps take 21 jumps of 1.03 / 21
    # and 20 of 0.97 / 20
    step, checkpoints = 0.05, [1.03, 2.0]
    rho, psi = sample_polar_endpoints(n, 2.0, step, np.random.default_rng(14),
                                      start=(0.5, 1.0), checkpoints=checkpoints)
    gen = np.random.default_rng(14)
    r, p, t = np.full(n, 0.5), np.full(n, 1.0), 0.0
    for i, (target, k) in enumerate(zip(checkpoints, (21, 20))):
        for c, s, ell in _jumps(gen, n, (target - t) / k, k):
            r, p = _polar_step(r, p, c, s, ell)
        assert np.array_equal(rho[i], r) and np.array_equal(psi[i], p), i
        t = target


def test_sample_path_blocks_match_per_step_draws():
    # 25 equal jumps of 1.23 / 25, recorded at the times j 1.23 / 25
    start, t, step = DiscPoint(0.2, -0.1), 1.23, 0.05
    path = sample_path(start, t, step, np.random.default_rng(15))
    z, want = start.z, [start.z]
    for c, s, ell in _jumps(np.random.default_rng(15), 1, t / 25, 25):
        z = _disc_step(z, complex(_disc_jump(c, s, ell)[0]))
        want.append(z)
    assert path.times == tuple(j * t / 25 for j in range(25)) + (t,)
    assert [q.z for q in path.points] == want


@pytest.mark.parametrize("walk", [
    pytest.param(lambda gen: sample_polar_endpoints(10, 1.0, 0.005, gen), id="polar-step-0.005"),
    pytest.param(lambda gen: sample_path(0j, 1.0, 0.005, gen), id="path-step-0.005"),
    pytest.param(lambda gen: sample_polar_endpoints(10, 0.015, 0.01, gen, checkpoints=[0.015]),
                 id="polar-checkpoint-0.015"),
    pytest.param(lambda gen: sample_path(0j, 0.005, 0.05, gen), id="path-t-0.005"),
    pytest.param(lambda gen: sample_polar_endpoints(10, 1.0, 5e-324, gen), id="polar-step-5e-324"),
    pytest.param(lambda gen: sample_path(0j, 1.0, 5e-324, gen), id="path-step-5e-324"),
])
def test_step_walkers_refuse_before_any_draw(walk):
    # a jump shorter than the radial table's 0.01, or a count of jumps that
    # overflows, is refused before the generator is touched
    gen = np.random.default_rng(17)
    state = gen.bit_generator.state
    with pytest.raises(DiffusionError):
        walk(gen)
    assert gen.bit_generator.state == state


def _scalar_specialization(spec, z):
    """spec at z from the scalar reduction and cocycle_of_word."""
    _, word = scalar_locate(z, spec.group)
    value = cocycle_of_word(spec.rep, word * spec.base_word.inverse())
    return math.log(np.linalg.norm(value @ spec.direction) / np.linalg.norm(spec.direction))


@pytest.mark.parametrize("base_word", [(), (1,)])
def test_specialization_values_match_scalar(group, rep_track, base_word):
    base = DeckWord(base_word).evaluate(group)(0j)
    spec = specialize(rep_track, [0.6, -0.8], group, base=base)
    assert spec.base_word == DeckWord(base_word)
    gen = np.random.default_rng(20151104)
    n = 2000
    z = 0.999 * np.sqrt(gen.random(n)) * np.exp(2j * np.pi * gen.random(n))
    got = spec.values(z)
    want = np.array([_scalar_specialization(spec, complex(p)) for p in z])
    assert np.max(np.abs(want)) > 1.0
    assert np.max(np.abs(got - want)) <= 1e-12
    one_point = np.array([spec(DiscPoint.from_complex(complex(p))) for p in z[:200]])
    assert np.max(np.abs(one_point - want[:200])) <= 1e-12


def test_regularity_batched_matches_scalar(group, rep_track):
    spec = specialize(rep_track, [1.0, 0.0], group)
    batched = estimate_regularity(spec, 400, 6.0, RngStream(31))
    scalar = estimate_regularity(
        lambda p: _scalar_specialization(spec, p), 400, 6.0, RngStream(31)
    )
    assert batched.n_pairs == scalar.n_pairs and batched.radius == scalar.radius
    assert batched.alpha_fit == scalar.alpha_fit
    for name in ("c_fit", "lipschitz_c", "bin_centers", "bin_envelope"):
        assert getattr(batched, name) == pytest.approx(getattr(scalar, name), rel=1e-12, abs=1e-12)
