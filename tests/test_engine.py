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
step bit for bit, whether drawn ahead on a worker thread or inline, a walk
that stops early must leave no worker running, and Specialization.values and
Specialization.__call__ must reproduce the specialization computed from the
scalar reduction and cocycle_of_word.
"""

import cmath
import concurrent.futures
import math
import sys
import threading

import numpy as np
import pytest

from hyplyap.cocycle import (
    Representation,
    _MatrixAccumulator,
    cocycle_of_word,
    estimate_regularity,
    specialize,
)
from hyplyap import cli, diffusion, lyapunov
from hyplyap.diffusion import (
    RngStream,
    _disc_jump,
    _disc_step,
    _disc_step_scalar,
    _polar_step,
    _radial_quantile,
    _step_count,
    _time_grid,
    sample_heat_endpoints,
    sample_path,
    sample_polar_endpoints,
)
from hyplyap.hypgeo import DiscPoint
from hyplyap.lyapunov import _brownian_walk
from hyplyap.surface import DeckWord, _reduce_ensemble, build_genus2

from scalar_reduction import contains, scalar_locate


def _increments(gen, n, t_max, step):
    """The per-step reference draw: (n1, n2, scale) for each step of an
    n-walker ensemble on _time_grid(t_max, step), one (2, n) draw per
    step; the jump is scale * (n1, n2)."""
    for dt in np.diff(_time_grid(t_max, step)):
        n1, n2 = gen.standard_normal((2, n))
        yield n1, n2, math.sqrt(2.0 * dt)


@pytest.fixture
def pools(monkeypatch):
    """The ThreadPoolExecutors started while the test runs."""
    started = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return started


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(diffusion, "_usable_cpus", lambda: cpus)


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
def test_walk_draws_two_normals_per_path_step(data, rep_track, monkeypatch, walker, n):
    # the step walkers: n = 2000 caps the block below the cadence, at 2
    # steps of 4000 normals; with a worker, n = 300 walks in 2 chunks,
    # n = 2000 in 7 and n = 5000 (one step per block) in 18.  The cadence
    # walk, whose path-steps are its 11 gaps, draws two uniforms per path
    # and gap instead, and starts no worker
    t, step = 5.25, 0.05
    steps = _step_count(t, step)
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        gen, ref = np.random.default_rng(13), np.random.default_rng(13)
        if walker == "brownian_walk":
            acc = _MatrixAccumulator(rep_track, data, n)
            for _ in _brownian_walk(data, acc, gen, n, t):
                pass
            ref.random(2 * n * math.ceil(t / lyapunov._REDUCE_EVERY))
        else:
            if walker == "polar_endpoints":
                sample_polar_endpoints(n, t, step, gen, checkpoints=[1.0, 5.25])
            else:
                sample_path(DiscPoint.origin(), t, step, gen)
            ref.standard_normal(2 * n * steps)
        assert np.array_equal(gen.standard_normal(16), ref.standard_normal(16)), cpus


@pytest.mark.parametrize("n", [300, 5000])
def test_polar_walker_blocks_match_per_step_draws(n):
    # n = 300 takes 10-step blocks, cut short at the checkpoint t = 1.03;
    # n = 5000 is past the cap, so each block is one step
    step, checkpoints = 0.05, [1.03, 2.0]
    rho, psi = sample_polar_endpoints(n, 2.0, step, np.random.default_rng(14),
                                      start=(0.5, 1.0), checkpoints=checkpoints)
    gen = np.random.default_rng(14)
    r, p, t = np.full(n, 0.5), np.full(n, 1.0), 0.0
    for i, target in enumerate(checkpoints):
        for n1, n2, scale in _increments(gen, n, target - t, step):
            r, p = _polar_step(r, p, n1, n2, scale)
        assert np.array_equal(rho[i], r) and np.array_equal(psi[i], p), i
        t = target


def test_sample_path_blocks_match_per_step_draws():
    # 25 steps of 0.05 to t = 1.23 and a short last step: 10 + 10 + 5 rows
    start, t, step = DiscPoint(0.2, -0.1), 1.23, 0.05
    path = sample_path(start, t, step, np.random.default_rng(15))
    gen = np.random.default_rng(15)
    z, want = start.z, [start.z]
    for n1, n2, scale in _increments(gen, 1, t, step):
        z = _disc_step_scalar(z, n1[0], n2[0], scale)
        want.append(z)
    assert path.times == tuple(_time_grid(t, step).tolist())
    assert [p.z for p in path.points] == want


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n, t, step, chunks", [
    (300, 1.23, 0.05, 1),     # 25 steps in blocks of 10, 10, 5; short last step
    (300, 25.27, 0.05, 6),    # 506 steps, 100 to a chunk; short last step
    (5000, 0.05, 0.01, 1),    # one step per block, 6 to a chunk
    (5000, 0.205, 0.01, 4),   # 21 steps; short last step
])
def test_normals_match_per_step_draws(pools, monkeypatch, n, t, step, chunks, cpus):
    _set_cpus(monkeypatch, cpus)
    gen, ref = np.random.default_rng(16), np.random.default_rng(16)
    blocks = list(diffusion._normals(gen, n, t, step))
    assert len(pools) == (cpus > 1 and chunks > 1)
    rows = ((b1[j], b2[j], scale[j, 0]) for b1, b2, scale in blocks for j in range(len(scale)))
    for (n1, n2, scale), (r1, r2, rscale) in zip(rows, _increments(ref, n, t, step), strict=True):
        assert np.array_equal(n1, r1) and np.array_equal(n2, r2) and scale == rscale
    k = max(1, min(round(diffusion._BLOCK_TIME / step), diffusion._BLOCK_NORMALS // (2 * n)))
    steps = _step_count(t, step)
    assert [len(b[2]) for b in blocks] == [min(k, steps - s) for s in range(0, steps, k)]
    assert gen.bit_generator.state == ref.bit_generator.state


def test_closed_walk_leaves_no_worker(pools, monkeypatch):
    # 6 steps to a chunk: after the first block the worker draws chunk 1
    _set_cpus(monkeypatch, 2)
    gen, ref = np.random.default_rng(17), np.random.default_rng(17)
    threads = threading.active_count()
    walk = diffusion._normals(gen, 5000, 1.0, 0.01)
    next(walk)
    assert len(pools) == 1
    walk.close()
    assert threading.active_count() == threads
    ref.standard_normal((12, 2, 5000))
    assert gen.bit_generator.state == ref.bit_generator.state


def test_walks_drawing_ahead_under_fast_thread_switching(monkeypatch):
    # three walks at once, each with its worker: six threads on fewer cores,
    # switching every 10 us; each walk still sees its own stream in order
    _set_cpus(monkeypatch, 2)
    results = {}

    def walk(seed):
        gen = np.random.default_rng(seed)
        results[seed] = np.concatenate([np.stack([n1, n2], axis=1)
                                        for n1, n2, _ in diffusion._normals(gen, 5000, 0.3, 0.01)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk, args=(seed,)) for seed in (21, 22, 23)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for seed in (21, 22, 23):
        ref = [(n1, n2) for n1, n2, _ in _increments(np.random.default_rng(seed), 5000, 0.3, 0.01)]
        assert np.array_equal(results[seed], np.array(ref)), seed


class _DrawFailed(Exception):
    pass


def test_worker_draw_error_reaches_caller(pools, monkeypatch):
    _set_cpus(monkeypatch, 2)

    class FailingSecondDraw:
        def __init__(self):
            self.gen, self.calls = np.random.default_rng(18), 0

        def standard_normal(self, shape):
            self.calls += 1
            if self.calls == 2:
                raise _DrawFailed(threading.current_thread() is threading.main_thread())
            return self.gen.standard_normal(shape)

    with pytest.raises(_DrawFailed) as exc:
        for _ in diffusion._normals(FailingSecondDraw(), 5000, 1.0, 0.01):
            pass
    assert exc.value.args == (False,)  # raised on the worker, re-raised here
    assert len(pools) == 1


def test_single_chunk_walks_start_no_thread(pools, monkeypatch, tmp_path):
    # a short path fits in one chunk: a thread would cost more than the
    # path.  validate cocycle jumps exactly and walks nothing
    _set_cpus(monkeypatch, 2)
    sample_path(DiscPoint.origin(), 2.0, 0.05, np.random.default_rng(19))
    assert cli.main(["validate", "cocycle", "--output", str(tmp_path / "c")]) == 0
    assert pools == []


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
