"""The vectorized ensemble engine against the scalar reference code.

The engine has a geometry layer, surface._reduce_ensemble, which emits deck
letters, and an algebra layer, cocycle._MatrixAccumulator, which folds them
into cocycle products; lyapunov walks ensembles on top of both.  The
reduction kernel must reproduce surface.locate walker by walker, the
inscribed disc it never tests must lie inside the octagon, the accumulator
must reproduce cocycle_of_word on each walker's recorded word, the lazy
walk must keep its reduction invariants, and the batched
Specialization.values must reproduce the scalar specialization.
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
from hyplyap.diffusion import RngStream
from hyplyap import lyapunov
from hyplyap.lyapunov import _brownian_walk
from hyplyap.surface import DeckWord, _GroupData, _reduce_ensemble, build_genus2, locate


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def data(group):
    return _GroupData(group)


@pytest.fixture(scope="module")
def rep_track(group):
    """Exact non-commuting pair: rho(g1) = rho(g4), rho(g2) = rho(g3)."""
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    b = np.array([[1.0, 0.0], [1.5, 1.0]])
    return Representation.from_matrices(2, "real", [a, b, b, a], group)


class _Recorder:
    """Accumulator that records each walker's letters in crossing order,
    counts them, and forwards every round to the accumulators it wraps."""

    def __init__(self, data, n, *accs):
        self.side_letters = data.letters
        self.letters = [[] for _ in range(n)]
        self.accs = accs
        self.count = 0

    def apply(self, first, idx):
        self.count += len(idx)
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
        rep, word = locate(complex(z[k]), group)
        assert DeckWord(tuple(rec.letters[k])) == word, k
        assert abs(rep.z - reduced[k]) <= 1e-12, k


def test_inscribed_disc_lies_in_octagon(group, data):
    # the kernel never tests walkers with |z| <= inner_r
    phis = 2.0 * np.pi * np.arange(4001) / 4001
    assert all(group.contains(data.inner_r * cmath.exp(1j * phi)) for phi in phis)
    # and the disc is the largest one: it touches every side at its midpoint
    for j in range(8):
        assert not group.contains(data.inner_r * (1.0 + 1e-6) * cmath.exp(1j * j * math.pi / 4.0))


def test_accumulator_matches_scalar_cocycles(data, rep_track):
    n = 200
    acc = _MatrixAccumulator(rep_track, data, n)
    rec = _Recorder(data, n, acc)
    for _ in _brownian_walk(data, rec, np.random.default_rng(7), n, 6.0, 0.05):
        pass
    assert sum(len(w) >= 3 for w in rec.letters) > n // 4
    for k in range(n):
        value = cocycle_of_word(rep_track, DeckWord(tuple(rec.letters[k])))
        want = value.matrix * math.exp(value.log_scale)
        assert np.linalg.norm(acc.m[k] - want) <= 1e-12 * np.linalg.norm(want), k


@pytest.mark.parametrize(
    "start, t, guard", [(0j, 5.0, None), (0.99 * cmath.exp(0.7j), 5.0, None), (0j, 5.25, 0.9)]
)
def test_lazy_walk_invariants(group, data, rep_track, monkeypatch, start, t, guard):
    # no walker is ever past the guard radius; every walker is in the
    # closed octagon at each full reduction, the last step included (t =
    # 5.25 ends between cadence points), and some are not in between; the
    # product is the cocycle of the letters the walk reported.  A guard
    # radius of 0.9 (rho 2.9) makes the guard fire on most steps.
    if guard is not None:
        monkeypatch.setattr(lyapunov, "_GUARD_R", guard)
    n, step = 500, 0.05
    every = round(lyapunov._REDUCE_EVERY / step)
    acc = _MatrixAccumulator(rep_track, data, n)
    rec = _Recorder(data, n, acc)
    full, lazy_outside, guarded, seen = 0, 0, 0, 0
    gen = np.random.default_rng(11)
    for i, last, z in lyapunov._brownian_walk(data, rec, gen, n, t, step, start):
        assert np.max(np.abs(z)) <= lyapunov._GUARD_R, i
        if i % every == 0 or last:
            full += 1
            assert all(group.contains(complex(w)) for w in z), i
        else:
            guarded += rec.count - seen
            if i % every == every // 2:
                lazy_outside += sum(not group.contains(complex(w)) for w in z)
        seen = rec.count
    assert last and full == math.ceil(t / lyapunov._REDUCE_EVERY) and lazy_outside > 0
    if guard is not None:
        assert guarded > 0
    assert sum(len(w) >= 3 for w in rec.letters) > n // 4
    for k in range(n):
        value = cocycle_of_word(rep_track, DeckWord(tuple(rec.letters[k])))
        want = value.matrix * math.exp(value.log_scale)
        assert np.linalg.norm(acc.m[k] - want) <= 1e-12 * np.linalg.norm(want), k


@pytest.mark.parametrize("base_word", [(), (1,)])
def test_specialization_values_match_scalar(group, rep_track, base_word):
    base = DeckWord(base_word).evaluate(group)(0j)
    spec = specialize(rep_track, [0.6, -0.8], group, base=base)
    assert spec.base_word == DeckWord(base_word)
    gen = np.random.default_rng(20151104)
    n = 2000
    z = 0.999 * np.sqrt(gen.random(n)) * np.exp(2j * np.pi * gen.random(n))
    got = spec.values(z)
    want = np.array([spec(complex(p)) for p in z])
    assert np.max(np.abs(want)) > 1.0
    assert np.max(np.abs(got - want)) <= 1e-12


def test_regularity_batched_matches_scalar(group, rep_track):
    spec = specialize(rep_track, [1.0, 0.0], group)
    batched = estimate_regularity(spec, 400, 6.0, RngStream(31))
    scalar = estimate_regularity(lambda p: spec(p), 400, 6.0, RngStream(31))
    assert batched.n_pairs == scalar.n_pairs and batched.radius == scalar.radius
    assert batched.alpha_fit == scalar.alpha_fit
    for name in ("c_fit", "lipschitz_c", "bin_centers", "bin_envelope"):
        assert getattr(batched, name) == pytest.approx(getattr(scalar, name), rel=1e-12, abs=1e-12)
