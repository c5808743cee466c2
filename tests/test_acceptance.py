"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line.  The reference cocycle is
rho(g_1) = diag(2, 1/2) with the other generator images the identity.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from hyplyap.cocycle import (
    diagonal_representation,
    estimate_regularity,
    evaluate,
    fuchsian_representation,
    specialize,
)
from hyplyap.diffusion import RngStream, heat_kernel_mass, sample_path
from hyplyap.hypgeo import (
    DiscPoint,
    MobiusMap,
    dist_P,
    mobius_point_chart,
    mobius_translation,
)
from hyplyap.lyapunov import (
    benettin_spectrum,
    brownian_norm_rate,
    expansion_interval,
    expectation_functions,
    geodesic_norm_rates,
)
from hyplyap.surface import build_genus2, track
from hyplyap.validate import (
    _polar_step_error,
    _ray_lift_error,
    check_circle_vs_diffusion,
    check_dynkin,
    check_semigroup,
    constant_field,
    direction_distribution_check,
    dist_squared_field,
    exp_neg_dist_field,
    real_part_field,
    shadowing_report,
    smoothed_dist_field,
)


def report(number, passed, detail):
    line = f"[{'pass' if passed else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def group():
    return build_genus2()


@pytest.fixture(scope="module")
def rep22():
    return diagonal_representation([2.0, 0.5])


@pytest.fixture(scope="module")
def benettin60(group, rep22):
    return benettin_spectrum(rep22, group, 60.0, 0.05, 10, 400, RngStream(600))


def combined_tolerance(a, sa, b, sb, sigmas=3.0, rel=0.05):
    return max(sigmas * math.hypot(sa, sb), rel * max(abs(a), abs(b)))


# ---------------------------------------------------------------------- 1


def test_criterion_01_cocycle_laws(group, rep22):
    """Identity, multiplicative, homotopy laws to 1e-10 on 100 paths."""
    worst_identity = 0.0
    worst_split = 0.0
    worst_homotopy = 0.0
    for i in range(100):
        path = sample_path(DiscPoint.origin(), 2.0, 0.05, RngStream(100, i))

        zero = evaluate(rep22, path.subpath(0, 0), group)
        worst_identity = max(
            worst_identity, float(np.max(np.abs(zero - np.eye(2))))
        )

        mid = len(path.points) // 2
        full_v = evaluate(rep22, path, group)
        prod = evaluate(rep22, path.subpath(mid, len(path.points) - 1), group) @ evaluate(
            rep22, path.subpath(0, mid), group
        )
        worst_split = max(
            worst_split,
            float(np.max(np.abs(full_v - prod))),
        )

        refined = _insert_geodesic_midpoints(path.points)
        w1 = track(path, group)
        w2 = track(_PathView(refined), group)
        if w1.letters != w2.letters:
            worst_homotopy = max(worst_homotopy, 1.0)
        else:
            v2 = evaluate(rep22, _PathView(refined), group)
            worst_homotopy = max(
                worst_homotopy, float(np.max(np.abs(full_v - v2)))
            )
    passed = max(worst_identity, worst_split, worst_homotopy) <= 1e-10
    line = report(
        1,
        passed,
        f"cocycle laws on 100 Brownian paths: identity {worst_identity:.2e}, "
        f"multiplicative {worst_split:.2e}, homotopy {worst_homotopy:.2e} (tol 1e-10)",
    )
    assert passed, line


class _PathView:
    def __init__(self, points):
        self.points = points


def _insert_geodesic_midpoints(points):
    out = [points[0]]
    for a, b in zip(points[:-1], points[1:]):
        chart = mobius_point_chart(a)
        xi = chart.inverse()(b.z)
        half = abs(xi) / (1.0 + math.sqrt(max(1.0 - abs(xi) ** 2, 0.0)))  # tanh(atanh/2)
        if abs(xi) > 0:
            mid = chart(half * xi / abs(xi))
            out.append(DiscPoint(mid.real, mid.imag))
        out.append(b)
    return out


# ---------------------------------------------------------------------- 2


def test_criterion_02_geometry(group):
    """Isometry invariance; the geodesic route's rays lifted back onto the
    exact rays, and the polar jump's length; relator."""
    rng = np.random.default_rng(2024)
    worst_iso = 0.0
    for _ in range(1000):
        rotation = MobiusMap(np.exp(1j * math.pi * rng.random()), 0j)
        m = mobius_translation(rng.random(), 3.0 * rng.random()) * rotation
        z = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        w = 0.95 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        worst_iso = max(worst_iso, abs(dist_P(m(z), m(w)) - dist_P(z, w)))

    ray_end, ray_turn = _ray_lift_error(group, rng.random(32), 12.0)
    worst_jump = _polar_step_error(rng, 1000)
    relator = group.relator_residual()
    passed = (
        worst_iso <= 1e-10
        and ray_end <= 1e-8
        and ray_turn <= 1e-12
        and worst_jump <= 1e-10
        and relator <= 1e-8
    )
    line = report(
        2,
        passed,
        f"geometry: isometry {worst_iso:.2e}, ray lift {ray_end:.2e} (direction "
        f"{ray_turn:.2e}), polar jump {worst_jump:.2e}, relator {relator:.2e}",
    )
    assert passed, line


# ---------------------------------------------------------------------- 3


def test_criterion_03_diffusion_suite():
    """Kernel mass, semigroup, and Dynkin checks for the test fields."""
    masses = {t: heat_kernel_mass(t) for t in (0.25, 1.0, 4.0)}
    mass_ok = all(0.999 <= m <= 1.001 for m in masses.values())

    semi = [
        check_semigroup(constant_field(1.0), 0.5, 0.5, 800, RngStream(301)),
        check_semigroup(exp_neg_dist_field(), 0.5, 0.5, 800, RngStream(302)),
        check_semigroup(real_part_field(), 1.0, 1.0, 800, RngStream(303)),
    ]
    dynk = [
        check_dynkin(constant_field(2.0), 1.0, 1200, RngStream(304)),
        check_dynkin(real_part_field(), 1.0, 1200, RngStream(305)),
        check_dynkin(dist_squared_field(), 1.0, 1500, RngStream(306)),
    ]
    all_ok = mass_ok and all(r.passed for r in semi + dynk)
    detail = (
        "kernel mass "
        + ", ".join(f"t={t}: {m:.6f}" for t, m in masses.items())
        + "; "
        + "; ".join(str(r) for r in semi + dynk)
    )
    line = report(3, all_ok, detail)
    assert all_ok, line


# ---------------------------------------------------------------------- 4


def test_criterion_04_drift_and_shadowing():
    """Median drift ratio at t=40 and bounded shadowing statistic."""
    rep = shadowing_report(10000, [20.0, 40.0, 80.0], RngStream(400))
    i40 = rep.t_values.index(40.0)
    drift_ok = 0.92 <= rep.drift_median[i40] <= 1.08
    passed = drift_ok and rep.slope_shadow_95 <= 0.1
    line = report(
        4,
        passed,
        f"drift median(t=40) {rep.drift_median[i40]:.4f} in [0.92, 1.08]; "
        f"shadowing 95th-pct slope {rep.slope_shadow_95:+.3f} <= 0.1 "
        f"(stats {['%.3f' % v for v in rep.shadow_quantiles[95]]})",
    )
    assert passed, line


# ---------------------------------------------------------------------- 5


def test_criterion_05_direction_uniformity():
    rep = direction_distribution_check(10000, 40.0, 32, RngStream(500))
    line = report(
        5,
        rep.passed,
        f"direction uniformity: chi2={rep.statistic:.2f} on {rep.n_bins} bins, "
        f"p={rep.p_value:.4f} > 0.001",
    )
    assert rep.passed, line


# ---------------------------------------------------------------------- 6


def test_criterion_06_spectrum_cross_validation(group, rep22, benettin60):
    """Benettin, direction-averaged geodesic, and Brownian norm-rate top
    exponents pairwise agree; sum ~ 0; chi_1 = -chi_2."""
    sp = benettin60
    chi1_b, ci1 = sp.exponents[0], sp.ci_halfwidths[0]
    se_b = ci1 / 1.96

    bn, se_n = brownian_norm_rate(rep22, group, 60.0, 2000, 0.05, RngStream(601))
    _, rates = geodesic_norm_rates(rep22, group, 60.0, 256)
    gm = float(np.mean(rates))
    se_g = float(np.std(rates, ddof=1) / math.sqrt(rates.size))

    pairs = [
        ("benettin-vs-geodesic", chi1_b, se_b, gm, se_g),
        ("benettin-vs-brownian", chi1_b, se_b, bn, se_n),
        ("geodesic-vs-brownian", gm, se_g, bn, se_n),
    ]
    pair_msgs, pair_ok = [], True
    for name, a, sa, b, sb in pairs:
        tol = combined_tolerance(a, sa, b, sb)
        ok = abs(a - b) <= tol
        pair_ok = pair_ok and ok
        pair_msgs.append(f"{name}: |{a:.5f}-{b:.5f}|={abs(a - b):.5f} tol={tol:.5f}")

    sum_ok = abs(sp.exponent_sum) <= max(sp.exponent_sum_ci, 1e-10)
    sym_ok = abs(sp.exponents[0] + sp.exponents[-1]) <= max(
        math.hypot(sp.ci_halfwidths[0], sp.ci_halfwidths[-1]), 1e-10
    )
    passed = pair_ok and sum_ok and sym_ok
    line = report(
        6,
        passed,
        "; ".join(pair_msgs)
        + f"; sum {sp.exponent_sum:+.2e} (ci {sp.exponent_sum_ci:.2e}); "
        f"chi1+chi2 {sp.exponents[0] + sp.exponents[-1]:+.2e}",
    )
    assert passed, line


# ---------------------------------------------------------------------- 7


def test_criterion_07_interval_convergence(group, rep22, benettin60):
    """Width of the 1-D interval; its midpoint against the Benettin top
    exponent; bracketing of the full-space interval."""
    chi1, chi2 = benettin60.exponents[0], benettin60.exponents[-1]

    a1, b1 = expansion_interval(rep22, group, 60.0, np.array([1.0, 0.0]), n_dirs=256)
    width_ok = (b1 - a1) <= 1e-12
    midpoint = 0.5 * (a1 + b1)
    mid_ok = abs(midpoint - chi1) <= 0.05 * chi1

    a2, b2 = expansion_interval(rep22, group, 60.0, np.eye(2), n_dirs=256)
    bracket_ok = (a2 >= chi2 - 0.05) and (b2 <= chi1 + 0.05)

    passed = width_ok and mid_ok and bracket_ok
    line = report(
        7,
        passed,
        f"span(e1) width {b1 - a1:.2e} (<=1e-12: {width_ok}); midpoint {midpoint:+.5f} "
        f"vs benettin chi1 {chi1:.5f} (tol {0.05 * chi1:.5f}: {mid_ok}); "
        f"K^2 interval [{a2:+.5f}, {b2:+.5f}] within [{chi2 - 0.05:+.5f}, {chi1 + 0.05:+.5f}]: "
        f"{bracket_ok}",
    )
    # The midpoint clause presumes span(e1) is the leading Oseledec block of
    # a positive exponent.  The true spectrum of this cocycle is {0} with
    # multiplicity 2 (drift-free diffusive winding), so the direction-averaged
    # signed rate sits near 0 while the Benettin estimate at finite horizon
    # sits near E|k| log2 / t > 0; the clause cannot hold at any sample size.
    assert passed, line


def test_criterion_07_twin_uniformizing(group):
    """Criterion 7's clauses on the uniformizing representation, whose
    spectrum +-1/2 is simple with span(e1) in general position: the
    midpoint clause has a positive exponent to meet."""
    fuchsian = fuchsian_representation(group)
    sp = benettin_spectrum(fuchsian, group, 60.0, 0.05, 10, 400, RngStream(700))
    chi1, chi2 = sp.exponents[0], sp.exponents[-1]

    a1, b1 = expansion_interval(fuchsian, group, 60.0, np.array([1.0, 0.0]), n_dirs=256)
    width_ok = (b1 - a1) <= 1e-12
    midpoint = 0.5 * (a1 + b1)
    mid_ok = abs(midpoint - chi1) <= 0.05 * chi1

    a2, b2 = expansion_interval(fuchsian, group, 60.0, np.eye(2), n_dirs=256)
    bracket_ok = (a2 >= chi2 - 0.05) and (b2 <= chi1 + 0.05)

    passed = width_ok and mid_ok and bracket_ok
    line = report(
        "7 (uniformizing twin)",
        passed,
        f"span(e1) width {b1 - a1:.2e} (<=1e-12: {width_ok}); midpoint {midpoint:+.5f} "
        f"vs benettin chi1 {chi1:.5f} (tol {0.05 * chi1:.5f}: {mid_ok}); "
        f"K^2 interval [{a2:+.5f}, {b2:+.5f}] within [{chi2 - 0.05:+.5f}, {chi1 + 0.05:+.5f}]: "
        f"{bracket_ok}",
    )
    assert passed, line


# ---------------------------------------------------------------------- 8


def test_criterion_08_expectation_convergence(group, rep22, benettin60):
    """Gap between [m_n, M_n] on span(e1) and the Benettin top exponent:
    monotone in n up to combined confidence intervals."""
    chi1, ci1 = benettin60.exponents[0], benettin60.ci_halfwidths[0]
    gaps, cis = [], []
    for i, n in enumerate((5, 10, 20, 40)):
        m_n, M_n = expectation_functions(
            rep22, group, np.array([1.0, 0.0]), n, 1500, 0.05, RngStream(800 + i)
        )
        assert m_n == M_n  # one-dimensional subspace
        # Monte Carlo ci for m_n via an independent split-half estimate
        m_a, _ = expectation_functions(
            rep22, group, np.array([1.0, 0.0]), n, 750, 0.05, RngStream(850 + i)
        )
        m_b, _ = expectation_functions(
            rep22, group, np.array([1.0, 0.0]), n, 750, 0.05, RngStream(870 + i)
        )
        se = abs(m_a - m_b) / 2.0 + 1e-6
        gaps.append(abs(0.5 * (m_n + M_n) - chi1))
        cis.append(math.hypot(1.96 * se, ci1))
    mono_ok = all(
        gaps[j + 1] <= gaps[j] + 3.0 * math.hypot(cis[j], cis[j + 1])
        for j in range(len(gaps) - 1)
    )
    line = report(
        8,
        mono_ok,
        "gaps to benettin chi1 over n=(5,10,20,40): "
        + ", ".join(f"{g:.5f}" for g in gaps)
        + f" (cis {['%.4f' % c for c in cis]}); monotone within 3 ci: {mono_ok}",
    )
    assert mono_ok, line


# ---------------------------------------------------------------------- 9


def test_criterion_09_circle_average_estimate():
    rep = check_circle_vs_diffusion(
        smoothed_dist_field(), [4.0, 8.0, 16.0, 32.0], 3000, RngStream(900)
    )
    line = report(
        9,
        rep.passed,
        f"circle-vs-diffusion slope {rep.slope:+.3f} <= 0.75 "
        f"(errors {['%.3f' % e for e in rep.errors]} at R={list(rep.abscissae)})",
    )
    assert rep.passed, line


# --------------------------------------------------------------------- 10


def test_criterion_10_regularity_probe(group, rep22):
    spec = specialize(rep22, [1.0, 0.0], group)
    values = []
    for seed in range(5):
        out = estimate_regularity(spec, 2000, 6.0, RngStream(1000 + seed))
        assert math.isfinite(out.lipschitz_c) and out.lipschitz_c > 0.0
        values.append(out.lipschitz_c)
    spread = (max(values) - min(values)) / (sum(values) / len(values))
    passed = spread <= 0.20
    line = report(
        10,
        passed,
        f"lipschitz constants across 5 seeds: {['%.4f' % v for v in values]}, "
        f"relative spread {spread:.3f} <= 0.20",
    )
    assert passed, line
