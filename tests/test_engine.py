"""The vectorized ensemble engine against the scalar reference code.

The engine has a geometry layer, surface._reduce_ensemble, which emits deck
letters, and an algebra layer, cocycle._MatrixAccumulator, which folds them
into cocycle products; lyapunov walks ensembles on top of both.  The
reduction kernel must reproduce the scalar reduction of scalar_reduction.py
walker by walker, the deck maps _DeckMaps composes must equal the
evaluated words of the same reduction, and the ray lift of validate
geometry must agree with the word-by-word lift of ray_lift_reference.py;
the inscribed disc the kernel never tests must lie inside the octagon,
the accumulator must reproduce cocycle_of_word on each walker's recorded
word and skip exactly the identity letters bit for bit, the
cadence walk must keep its reduction invariants and lift to Brownian
motion, its block draws must reproduce one draw per gap bit for bit, every
step walker's block and tile draws must reproduce one draw per exact jump
bit for bit, a polar walk from the origin must land its first jump on the
drawn polar point, a step walker must refuse a jump it cannot draw before
drawing, and Specialization.values and Specialization.__call__ must
reproduce the specialization computed from the scalar reduction and
cocycle_of_word.  A reduction round must move exactly the walkers that
violate a side, each across its smallest violated side, and
estimate_regularity must reproduce the per-alpha lstsq fit of
regularity_reference.py.
"""

import cmath
import math

import numpy as np
import pytest

from hyplyap.cocycle import (
    Representation,
    _fit_envelope,
    _MatrixAccumulator,
    cocycle_of_word,
    diagonal_representation,
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
from hyplyap.surface import _SIDE_TOL, DeckWord, _DeckMaps, _reduce_ensemble, build_genus2

from ray_lift_reference import reference_ray_lift
from regularity_reference import reference_estimate_regularity, reference_fit
from scalar_reduction import contains, first_violated_side, scalar_locate, side_violations


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


def _disc_points():
    """2000 points uniform in the disc |z| <= 0.999."""
    gen = np.random.default_rng(20150318)
    n = 2000
    return 0.999 * np.sqrt(gen.random(n)) * np.exp(2j * np.pi * gen.random(n))


def test_reduction_matches_scalar_locate(group, data):
    z = _disc_points()
    n = z.size
    reduced = z.copy()
    rec = _Recorder(data, n)
    _reduce_ensemble(data, reduced, acc=rec)
    assert max(len(w) for w in rec.letters) >= 4
    for k in range(n):
        rep, word = scalar_locate(complex(z[k]), group)
        assert DeckWord(tuple(rec.letters[k])) == word, k
        assert abs(rep.z - reduced[k]) <= 1e-12, k


def test_deck_maps_match_scalar_words(group, data):
    # the pairs composed in one array pass per round take every
    # representative back to its point, and equal DeckWord.evaluate of the
    # word recorded in the same reduction, up to the sign and positive scale
    # that MobiusMap normalizes away
    z = _disc_points()
    reduced = z.copy()
    maps = _DeckMaps(group, z.size)
    rec = _Recorder(data, z.size, maps)
    _reduce_ensemble(data, reduced, acc=rec)
    assert np.max(np.abs(maps.lift(reduced)[0] - z)) <= 1e-12
    for k in range(z.size):
        m = DeckWord(tuple(rec.letters[k])).evaluate(group)
        want = np.array([m.a, m.b])
        got = np.array([maps.a[k], maps.b[k]])
        scale = np.vdot(want, got).real / np.vdot(want, want).real
        assert np.linalg.norm(got - scale * want) <= 1e-12 * np.linalg.norm(got), k


@pytest.mark.parametrize("seed", range(4))
def test_ray_lift_matches_word_by_word_reference(group, data, seed):
    # 32 rays to R = 12: both lifts land on the exact rays within the
    # ray_lift row's tolerances, and on each other ray by ray, step by step
    thetas = np.random.default_rng(seed).random(32)
    end, turn = lyapunov._ray_lift_error(group, thetas, 12.0)
    ref_end, ref_turn, ref_lifted = reference_ray_lift(group, thetas, 12.0)
    assert end <= 1e-8 and turn <= 1e-12
    assert ref_end <= 1e-8 and ref_turn <= 1e-12
    maps = _DeckMaps(group, thetas.size)
    walk = lyapunov._ray_walk(data, maps, thetas, 12.0, lyapunov._REDUCE_EVERY)
    lifted = np.array([maps.lift(w)[0] for w, _ in walk])
    assert np.max(np.abs(lifted - ref_lifted)) <= 1e-9


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


class _Rounds:
    """Accumulator that records every reduction round's (side, walker)
    arrays."""

    def __init__(self):
        self.rounds = []

    def apply(self, first, idx):
        self.rounds.append((first.copy(), idx.copy()))


def _violating(group, side, both=False):
    """A point just outside `side` (1-based) at its midpoint, or, with
    both, just outside the vertex it shares with the next side."""
    if both:
        r = math.tanh(0.5 * group.circumradius) * 1.05
        return r * cmath.exp(1j * (2 * side - 1) * math.pi / 8.0)
    r = math.tanh(0.5 * group.inradius) * 1.05
    return r * cmath.exp(1j * (side - 1) * math.pi / 4.0)


@pytest.mark.parametrize("case", ["side 8 only", "sides 1 and 8", "one walker", "many"])
def test_round_moves_the_violators_across_their_smallest_side(group, data, case):
    # a walker moves when any of its 8 side bytes is set, and crosses its
    # smallest violated side, as the scalar reference decides
    edge_8, corner_18 = _violating(group, 8), _violating(group, 8, both=True)
    assert [j for j, s in enumerate(side_violations(group, edge_8), 1) if s < -_SIDE_TOL] == [8]
    assert [j for j, s in enumerate(side_violations(group, corner_18), 1)
            if s < -_SIDE_TOL] == [1, 8]
    inside = 0.5 * cmath.exp(0.3j)  # past the inscribed disc, inside the octagon
    if case == "side 8 only":
        z = np.array([inside, edge_8, inside, edge_8 * cmath.exp(0.01j)])
    elif case == "sides 1 and 8":
        z = np.array([corner_18, inside, corner_18 * 1.01, edge_8])
    elif case == "one walker":
        z = np.array([corner_18])
    else:
        gen = np.random.default_rng(20261020)
        n = 20000
        z = 0.995 * np.sqrt(gen.random(n)) * np.exp(2j * np.pi * gen.random(n))
        z[::97] = corner_18
        z[1::89] = edge_8
    rec = _Rounds()
    _reduce_ensemble(data, z.copy(), acc=rec)
    first, idx = rec.rounds[0]
    want = [first_violated_side(group, complex(p)) for p in z]
    moved = [k for k, j in enumerate(want) if j is not None]
    assert idx.tolist() == moved
    assert (first + 1).tolist() == [want[k] for k in moved]


@pytest.mark.parametrize("seed", range(500, 512))
def test_regularity_matches_the_per_alpha_lstsq_reference(group, rep_track, seed):
    spec = specialize(rep_track, [1.0, 0.0], group)
    got = estimate_regularity(spec, 2000, 6.0, RngStream(seed))
    want = reference_estimate_regularity(spec, 2000, 6.0, RngStream(seed))
    assert got.alpha_fit == want.alpha_fit
    assert got.lipschitz_c == want.lipschitz_c
    assert got.bin_centers == want.bin_centers
    assert got.bin_envelope == want.bin_envelope
    assert got.c_fit == pytest.approx(want.c_fit, rel=1e-13, abs=0.0)


class _FixedDraws(np.random.Generator):
    """A generator whose `random` returns the given array."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self.draws = draws

    def random(self, size=None):
        assert size == self.draws.shape
        return self.draws.copy()


def test_regularity_bins_separations_on_the_edges_as_the_reference(group, rep_track):
    # bin i is (edges[i], edges[i+1]]: a separation on an edge belongs to the
    # bin below it, and a separation of 0 to none
    spec = specialize(rep_track, [1.0, 0.0], group)
    draws = np.random.default_rng(36).random((240, 4))
    draws[:, 2] = np.arange(240) % 24 / 24.0
    edges = np.linspace(0.0, 6.0, 13)
    assert np.isin(draws[:, 2] * 6.0, edges).sum() == 120  # 0 and the 11 inner edges, 10 times each
    got = estimate_regularity(spec, 240, 6.0, _FixedDraws(draws))
    want = reference_estimate_regularity(spec, 240, 6.0, _FixedDraws(draws))
    assert got.bin_centers == want.bin_centers and len(got.bin_centers) == 12
    assert got.bin_envelope == want.bin_envelope
    assert got.alpha_fit == want.alpha_fit
    assert got.c_fit == pytest.approx(want.c_fit, rel=1e-13, abs=0.0)


def test_regularity_fit_of_a_decreasing_envelope_is_flat():
    # every alpha > 0 fits a negative slope, clipped to 0 with its intercept
    # kept, so alpha = 0 wins: the minimum-norm split c = c0 = mean / 2
    x = 0.25 + 0.5 * np.arange(2, 12)
    y = 3.0 / x + 0.1 * np.sin(x)
    assert np.all(np.diff(y) < 0)
    alpha, c = _fit_envelope(x, y)
    assert (alpha, c) == (0.0, y.mean() / 2)
    ref_alpha, ref_c = reference_fit(x, y)
    assert ref_alpha == 0.0 and ref_c == pytest.approx(y.mean() / 2, rel=1e-13, abs=0.0)


@pytest.fixture(scope="module")
def walk_rounds(data):
    """The rounds of one Brownian walk of 400 paths to t = 20."""
    rec = _Rounds()
    for _ in _brownian_walk(data, rec, np.random.default_rng(14), 400, 20.0):
        pass
    return rec.rounds


def _fold_every_letter(imgs, m, rounds):
    """The products m takes from the recorded rounds, multiplying every
    letter."""
    m = m.copy()
    for first, idx in rounds:
        m[idx] = m.take(idx, 0) @ imgs.take(first, 0)
    return m


def _identity_mix():
    """g1 = A and g4 = A^2 commute, g2 = g3 = I: exact, and not diagonal."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    return Representation.from_matrices(2, "real", [a, np.eye(2), np.eye(2), a @ a])


@pytest.mark.parametrize("name", ["diag22", "diag313", "identity-mix", "pair"])
def test_accumulator_skips_identity_letters_bit_for_bit(data, rep_track, walk_rounds, name):
    # a product times I is that product, so skipping the letters whose
    # image is exactly I leaves every product equal to the fold of every
    # letter; the pair has no identity image and folds every letter
    rep = {
        "diag22": lambda: diagonal_representation([2.0, 0.5]),
        "diag313": lambda: diagonal_representation([3.0, 1.0, 1.0 / 3.0]),
        "identity-mix": _identity_mix,
        "pair": lambda: rep_track,
    }[name]()
    acc = _MatrixAccumulator(rep, data, 400)
    identity = [np.array_equal(img, np.eye(rep.dim)) for img in acc.imgs]
    if name == "pair":
        assert acc.folded is None
    else:
        assert acc.folded.tolist() == [not i for i in identity] and any(identity)
        assert any((~acc.folded[first]).any() for first, _ in walk_rounds)
    want = _fold_every_letter(acc.imgs, acc.m, walk_rounds)
    for first, idx in walk_rounds:
        acc.apply(first, idx)
    assert np.array_equal(acc.m, want)


def test_accumulator_folds_an_image_that_is_the_identity_only_to_rounding(data, walk_rounds):
    a = np.array([[1.1, 0.3], [0.2, 0.9]])
    near = a @ np.linalg.inv(a)
    assert np.allclose(near, np.eye(2), rtol=0.0, atol=1e-15) and not np.array_equal(near, np.eye(2))
    rep = Representation.from_matrices(2, "real", [np.diag([2.0, 0.5]), near, np.eye(2), np.eye(2)])
    acc = _MatrixAccumulator(rep, data, 400)
    assert acc.folded.tolist() == [abs(letter) <= 2 for letter in data.letters]
    want = _fold_every_letter(acc.imgs, acc.m, walk_rounds)
    for first, idx in walk_rounds:
        acc.apply(first, idx)
    assert np.array_equal(acc.m, want)


def test_accumulator_skip_keeps_a_negative_zero(data):
    # BLAS may form -0.0 * 1 + x * 0 as +0.0 when x >= 0, while a skipped
    # identity letter keeps -0.0; the two compare equal
    acc = _MatrixAccumulator(diagonal_representation([2.0, 0.5]), data, 2)
    acc.m[:] = [[1.0, -0.0], [0.0, 1.0]]
    side = acc.folded.tolist().index(False)
    rounds = [(np.array([side, side]), np.arange(2))]
    want = _fold_every_letter(acc.imgs, acc.m, rounds)
    acc.apply(*rounds[0])
    assert np.signbit(acc.m[:, 0, 1]).all() and np.array_equal(acc.m, want)


@pytest.mark.parametrize("start, t", [(0j, 5.0), (0.99 * cmath.exp(0.7j), 5.0), (0j, 5.25)])
def test_cadence_walk_invariants(group, data, rep_track, start, t):
    # the walk takes ceil(t / _JUMP_GAP) gaps (t = 5.25: 6 gaps of 0.875),
    # and after each one every walker is in the closed octagon; the product
    # is the cocycle of the letters the walk reported
    n = 500
    acc = _MatrixAccumulator(rep_track, data, n)
    rec = _Recorder(data, n, acc)
    gaps = 0
    for z in _brownian_walk(data, rec, np.random.default_rng(11), n, t, start):
        gaps += 1
        assert all(contains(group, complex(w)) for w in z), gaps
    assert gaps == math.ceil(t / lyapunov._JUMP_GAP)
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
    # uniforms, and t = 4.25 takes ceil(t / _JUMP_GAP) gaps (5 of 0.85, so
    # 2 full blocks and a short one).  Its uniforms, and the positions and
    # products after every gap, equal bit for bit those of one (2, n) draw
    # per gap
    n, t = 2000, 4.25
    gaps = math.ceil(t / lyapunov._JUMP_GAP)
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
    assert spy.shapes == [(2, 2, n)] * 2 + [(1, 2, n)]


@pytest.mark.parametrize("walker, n", [
    pytest.param(walker, n, id=f"{walker}-{n}")
    for walker in ("brownian_walk", "polar_endpoints")
    for n in (2000, 300, 5000)
] + [pytest.param("sample_path", 1, id="sample_path-1")])
def test_walk_draws_two_normals_per_path_step(data, rep_track, walker, n):
    # every walker draws two uniforms per path and jump: the cadence walk
    # takes its ceil(t / _JUMP_GAP) gaps (6 of t / 6), and the step walkers
    # cut each checkpoint gap into ceil(gap / step) jumps.  n = 300 draws
    # blocks of 13 jumps, n = 2000 of 2 and n = 5000 of 1
    t, step = 5.25, 0.05
    gen, ref = np.random.default_rng(13), np.random.default_rng(13)
    if walker == "brownian_walk":
        acc = _MatrixAccumulator(rep_track, data, n)
        for _ in _brownian_walk(data, acc, gen, n, t):
            pass
        jumps = math.ceil(t / lyapunov._JUMP_GAP)
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


@pytest.mark.parametrize("n, array_start", [
    pytest.param(300, False, id="300"),
    pytest.param(5000, False, id="5000"),
    pytest.param(2 * 4096 + 123, True, id="8315-array-start"),
])
def test_polar_walker_blocks_match_per_step_draws(n, array_start):
    # n = 300 takes blocks of 13 jumps, cut short at the checkpoint t = 1.03;
    # the larger ensembles take one jump per block, formed in tiles of 4096
    # walkers (the last 904 and 123 wide).  The gaps take 21 jumps of
    # 1.03 / 21 and 20 of 0.97 / 20
    step, checkpoints = 0.05, [1.03, 2.0]
    if array_start:
        start = tuple(np.random.default_rng(7).random((2, n)) * [[3.0], [2.0 * math.pi]])
    else:
        start = (0.5, 1.0)
    rho, psi = sample_polar_endpoints(n, 2.0, step, np.random.default_rng(14),
                                      start=start, checkpoints=checkpoints)
    gen = np.random.default_rng(14)
    r, p, t = np.full(n, start[0]), np.full(n, start[1]), 0.0
    for i, (target, k) in enumerate(zip(checkpoints, (21, 20))):
        for c, s, ell in _jumps(gen, n, (target - t) / k, k):
            r, p = _polar_step(r, p, c, s, ell)
        assert np.array_equal(rho[i], r) and np.array_equal(psi[i], p), i
        t = target


@pytest.mark.parametrize("n", [300, 2 * 4096 + 123])
def test_polar_walker_first_jump_from_origin_lands_on_its_draw(n):
    # from the origin the first jump lands at (length, psi0 + 2 pi u) of its
    # draw, also after a zero gap, and the later jumps are _polar_step's.
    # The 8 jumps of h = 1/32 to t = 1/4 come in one block of 8 at n = 300
    # and in tiles at n = 8315; cut at t = h they give the same walk
    psi0, h = 1.0, 1.0 / 32.0
    rho, psi = sample_polar_endpoints(n, 8 * h, h, np.random.default_rng(16),
                                      start=(0.0, psi0), checkpoints=[0.0, h, 8 * h])
    gen = np.random.default_rng(16)
    u = gen.random((2, n))
    ell, angle = _radial_quantile(h, u[0]), 2.0 * math.pi * u[1]
    assert np.array_equal(rho[0], np.zeros(n)) and np.array_equal(psi[0], np.full(n, psi0))
    assert np.array_equal(rho[1], ell) and np.array_equal(psi[1], psi0 + angle)
    r, p = rho[1], psi[1]
    for c, s, length in _jumps(gen, n, h, 7):
        r, p = _polar_step(r, p, c, s, length)
    assert np.array_equal(rho[2], r) and np.array_equal(psi[2], p)
    whole = sample_polar_endpoints(n, 8 * h, h, np.random.default_rng(16), start=(0.0, psi0))
    assert np.array_equal(whole[0][0], r) and np.array_equal(whole[1][0], p)
    # the law of cosines reaches the same point up to rounding: it forms
    # cosh l + sinh l before its log, so its radius is good to a few ulps
    # of max(l, 1), and its angle lies in (-pi, pi], not [0, 2 pi)
    r, p = _polar_step(np.zeros(n), np.full(n, psi0), np.cos(angle), np.sin(angle), ell)
    assert np.all(np.abs(r - ell) <= 4.0 * np.spacing(np.maximum(ell, 1.0)))
    assert np.all(np.abs(np.remainder(p - psi[1] + math.pi, 2.0 * math.pi) - math.pi) <= 1e-14)
    # an all-zero array start is the origin
    zero = sample_polar_endpoints(n, 8 * h, h, np.random.default_rng(16),
                                  start=(np.zeros(n), np.full(n, psi0)),
                                  checkpoints=[0.0, h, 8 * h])
    assert np.array_equal(zero[0], rho) and np.array_equal(zero[1], psi)


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
