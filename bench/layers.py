"""Direct per-call costs of hyplyap's public functions, one layer at a time.

Each figure is the median over a few repetitions of a fixed-size call,
divided by the work the call does (path-steps, ray-steps, calls, letters).
Inputs come from the run's seed, so a run is repeatable.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPEATS = 5
STEP = 0.05


def _median_seconds(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _reduced_word(gen, length):
    letters = []
    while len(letters) < length:
        letter = int(gen.choice([1, 2, 3, 4, -1, -2, -3, -4]))
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    return tuple(letters)


def measure(hl, rep22, rep_track, seed):
    """Per-layer costs; ``hl`` is the imported hyplyap package, ``rep22``
    the diag(2, 1/2) representation, ``rep_track`` the non-commuting one."""
    group = hl.build_genus2()
    gen = np.random.default_rng([seed, 7])
    out = {}

    def per_unit(name, unit, scale, fn, units, repeats=REPEATS):
        out[name] = (_median_seconds(fn, repeats) * scale / units, unit)

    def steps(t):
        return math.ceil(t / STEP - 1e-9)

    # lyapunov: ensemble engine, with and without QR
    for n, t, repeats in ((400, 10.0, REPEATS), (4000, 3.0, 3)):
        per_unit(f"lyapunov.benettin_ns_per_path_step.n{n}", "ns", 1e9,
                 lambda: hl.benettin_spectrum(rep22, group, t, STEP, 10, n,
                                              hl.RngStream(seed, 1)),
                 n * steps(t), repeats)
        per_unit(f"lyapunov.norm_rate_ns_per_path_step.n{n}", "ns", 1e9,
                 lambda: hl.brownian_norm_rate(rep22, group, t, n, STEP,
                                               hl.RngStream(seed, 2)),
                 n * steps(t), repeats)
    t = 10.0
    every = _median_seconds(lambda: hl.benettin_spectrum(
        rep22, group, t, STEP, 1, 400, hl.RngStream(seed, 1)))
    tenth = _median_seconds(lambda: hl.benettin_spectrum(
        rep22, group, t, STEP, 10, 400, hl.RngStream(seed, 1)))
    extra = steps(t) - steps(t) // 10
    out["lyapunov.qr_us_per_reorth.n400"] = ((every - tenth) * 1e6 / extra, "us")
    per_unit("lyapunov.geodesic_ns_per_ray_step", "ns", 1e9,
             lambda: hl.geodesic_norm_rates(rep22, group, 60.0, 256),
             256 * steps(60.0), 3)

    # diffusion: polar walker, heat kernel, scalar raw-disc sampler
    for n, t in ((400, 10.0), (10000, 2.0)):
        per_unit(f"diffusion.polar_ns_per_path_step.n{n}", "ns", 1e9,
                 lambda: hl.sample_polar_endpoints(n, t, STEP,
                                                   np.random.default_rng([seed, 3])),
                 n * steps(t))
    grid = [(rho, tk) for rho in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0) for tk in (0.25, 1.0, 4.0)]
    per_unit("diffusion.heat_kernel_us", "us", 1e6,
             lambda: [hl.heat_kernel(rho, tk) for rho, tk in grid], len(grid))
    per_unit("diffusion.sample_path_us_per_step", "us", 1e6,
             lambda: [hl.sample_path(hl.DiscPoint.origin(), 2.0, STEP,
                                     hl.RngStream(seed, 100 + i)) for i in range(20)],
             20 * steps(2.0))

    # surface: scalar reduction, tracking, group construction
    radii = np.tanh(0.5 * gen.uniform(0.0, 6.0, 200))
    points = [complex(z) for z in radii * np.exp(2j * np.pi * gen.random(200))]
    per_unit("surface.locate_us", "us", 1e6,
             lambda: [hl.locate(z, group) for z in points], len(points))
    paths = [hl.sample_path(hl.DiscPoint.origin(), 2.0, STEP, hl.RngStream(seed, 200 + i))
             for i in range(20)]
    per_unit("surface.track_us_per_step", "us", 1e6,
             lambda: [hl.track(p, group) for p in paths],
             sum(len(p.points) - 1 for p in paths))
    per_unit("surface.build_genus2_ms", "ms", 1e3,
             lambda: [hl.build_genus2() for _ in range(20)], 20)

    # cocycle: word products and specializations on the non-commuting pair
    words = [hl.DeckWord(_reduced_word(gen, 100)) for _ in range(20)]
    per_unit("cocycle.word_us_per_letter", "us", 1e6,
             lambda: [hl.cocycle_of_word(rep_track, w) for w in words],
             sum(len(w) for w in words))
    spec = hl.specialize(rep_track, [1.0, 0.0], group)
    per_unit("cocycle.specialization_us", "us", 1e6,
             lambda: [spec(z) for z in points], len(points))

    # hypgeo: the distance every path check calls
    pairs = list(zip(points, points[1:] + points[:1]))
    per_unit("hypgeo.dist_P_us", "us", 1e6,
             lambda: [hl.dist_P(z, w) for _ in range(10) for z, w in pairs], 10 * len(pairs))
    return out
