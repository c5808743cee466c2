"""Sampler, heat kernel, and diffusion-operator checks.

Statistical assertions run at fixed seeds with 3-sigma tolerances; frozen
kernel values come from the independent composite Gauss-Legendre oracle in
this file (different substitution and node placement than the library).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hyplyap.diffusion import (
    CheckReport,
    DiffusionError,
    LeafPath,
    RngStream,
    ScalarField,
    check_circle_vs_diffusion,
    check_dynkin,
    check_semigroup,
    circle_average,
    constant_field,
    diffuse,
    dist_squared_field,
    exp_neg_dist_field,
    heat_kernel,
    heat_kernel_mass,
    real_part_field,
    sample_heat_endpoints,
    sample_path,
    sample_polar_endpoints,
    smoothed_dist_field,
)
from hyplyap.diffusion import (
    _disc_jump,
    _disc_step,
    _heat_jump_blocks,
    _polar_step,
    _radial_quantile,
    _radial_table,
)
from hyplyap.hypgeo import DiscPoint, dist_P


# ----------------------------------------------------------------- oracle


def heat_kernel_oracle(rho, t, panels=400, order=24):
    """Second quadrature route: substitution v = sqrt(cosh s - cosh rho)
    on Gauss-Legendre panels with edges uniform in s."""
    cr = math.cosh(rho)
    s_max = math.sqrt(rho * rho + 400.0 * t + 400.0)
    s_edges = np.linspace(rho, s_max, panels + 1)
    v_edges = np.sqrt(np.maximum(np.cosh(s_edges) - cr, 0.0))
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(v_edges[:-1], v_edges[1:]):
        if b <= a:
            continue
        v = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        w = 0.5 * (b - a) * weights
        s = np.arccosh(cr + v * v)
        jac = 2.0 / np.sqrt((cr + v * v) ** 2 - 1.0)
        total += np.sum(w * s * np.exp(-s * s / (4.0 * t)) * jac)
    pref = math.sqrt(2.0) * math.exp(-t / 4.0) / (8.0 * math.pi ** 1.5 * t ** 1.5)
    return pref * total


# ----------------------------------------------------------------- paths


def test_sample_path_reproducible():
    p1 = sample_path(DiscPoint.origin(), 2.0, 0.05, RngStream(42, 3))
    p2 = sample_path(DiscPoint.origin(), 2.0, 0.05, RngStream(42, 3))
    assert all(a.z == b.z for a, b in zip(p1.points, p2.points))
    p3 = sample_path(DiscPoint.origin(), 2.0, 0.05, RngStream(42, 4))
    assert any(a.z != b.z for a, b in zip(p1.points, p3.points))


def test_sample_path_zero_horizon():
    p = sample_path(DiscPoint(0.2, 0.1), 0.0, 0.05, RngStream(1))
    assert len(p.points) == 1
    assert p.points[0].z == 0.2 + 0.1j


def test_sample_path_rejects_bad_params():
    with pytest.raises(DiffusionError):
        sample_path(DiscPoint.origin(), 1.0, 0.06, RngStream(1))
    with pytest.raises(DiffusionError):
        sample_path(DiscPoint.origin(), math.inf, 0.05, RngStream(1))
    with pytest.raises(DiffusionError):
        sample_path(DiscPoint.origin(), 1.0, 0.0, RngStream(1))


def test_leafpath_invariants():
    pts = (DiscPoint.origin(), DiscPoint(0.1, 0.0))
    with pytest.raises(DiffusionError):
        LeafPath((0.0, 0.0), pts, 0.05)            # non-increasing times
    with pytest.raises(DiffusionError):
        LeafPath((0.5, 1.0), pts, 0.05)            # must start at 0
    with pytest.raises(DiffusionError):
        LeafPath((0.0,), pts, 0.05)                # length mismatch
    path = LeafPath((0.0, 0.05), pts, 0.05)
    assert path.points[-1].z == 0.1


def test_subpath_shift():
    p = sample_path(DiscPoint.origin(), 1.0, 0.05, RngStream(9))
    tail = p.subpath(10, len(p.points) - 1)
    assert tail.times[0] == 0.0
    assert tail.points[0].z == p.points[10].z


def test_small_time_second_moment():
    # E[rho^2] = 4t for the generator Delta (not Delta/2)
    rho, _ = sample_polar_endpoints(10000, 0.01, 0.01, RngStream(5).generator())
    m = float(np.mean(rho[-1] ** 2))
    assert 0.038 <= m <= 0.042


def test_unit_drift_at_t20():
    rho, _ = sample_polar_endpoints(10000, 20.0, 0.05, RngStream(6).generator())
    ratio = float(np.mean(rho[-1]) / 20.0)
    assert 0.9 <= ratio <= 1.1


def test_drift_law_multi_horizon():
    # per-path ratio spread band (the mean carries an O(1)/t overshoot from
    # the early coth drift, far above the standard error of the mean)
    rho, _ = sample_polar_endpoints(
        10000, 40.0, 0.05, RngStream(7).generator(), checkpoints=[10.0, 20.0, 40.0]
    )
    for i, t in enumerate([10.0, 20.0, 40.0]):
        ratios = rho[i] / t
        spread = float(np.std(ratios, ddof=1))
        assert 1.0 - 3.0 * spread <= float(np.mean(ratios)) <= 1.0 + 3.0 * spread


def test_sample_path_agrees_with_polar_walker_in_law():
    # endpoint distance-squared of the scalar path builder vs the ensemble
    d2 = []
    for i in range(200):
        p = sample_path(DiscPoint.origin(), 2.0, 0.05, RngStream(30, i))
        d2.append(dist_P(DiscPoint.origin(), p.points[-1]) ** 2)
    rho, _ = sample_polar_endpoints(2000, 2.0, 0.05, RngStream(31).generator())
    a, b = np.mean(d2), np.mean(rho[-1] ** 2)
    se = math.hypot(np.std(d2, ddof=1) / math.sqrt(len(d2)),
                    np.std(rho[-1] ** 2, ddof=1) / math.sqrt(rho.shape[1]))
    assert abs(a - b) <= 3.0 * se


def test_polar_and_raw_walkers_agree_in_law():
    # the polar step walker against the raw chart's exact jumps, two of 0.5
    # composed by the Mobius move, as the matrix routes' walk takes them
    f = exp_neg_dist_field()
    rho, psi = sample_polar_endpoints(4000, 1.0, 0.01, RngStream(8).generator())
    polar_vals = f.values_polar(rho[-1], psi[-1])
    zs = np.zeros(4000, complex)
    for c, s, ell in _heat_jump_blocks(RngStream(9).generator(), 4000, 0.5, 2):
        for xi in _disc_jump(c, s, ell):
            zs = _disc_step(zs, xi)
    raw_vals = f.values_polar(2.0 * np.arctanh(np.abs(zs)), np.angle(zs))
    se = math.hypot(
        np.std(polar_vals, ddof=1) / 63.2, np.std(raw_vals, ddof=1) / 63.2
    )
    assert abs(np.mean(polar_vals) - np.mean(raw_vals)) <= 3.0 * se


# ------------------------------------------------------------- increments


def _law_of_cosines_step(rho, psi, n1, n2, dt):
    """The hypot/arctan2/cos/sin law-of-cosines step the walkers used before
    the algebraic increment, as an oracle.  It runs in 40-digit arithmetic:
    in float64 its angle cancels near the origin (cosh rho cosh rho' - cosh l;
    psi off by about 6e-6 at rho = 1e-8 over 2000 draws) and its radius
    cancels in y^2 - u for short jumps (about 3e-12 relative)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        rho, n1, n2 = mp.mpf(rho), mp.mpf(n1), mp.mpf(n2)
        ell = mp.sqrt(2 * mp.mpf(dt)) * mp.hypot(n1, n2)
        beta = mp.atan2(n2, n1)
        u = mp.exp(-2 * rho)
        ch, sh = mp.cosh(ell), mp.sinh(ell)
        y_half = ((1 + u) * ch + (1 - u) * sh * mp.cos(beta)) / 2
        rho_new = rho + mp.log(y_half + mp.sqrt(max(y_half * y_half - u, 0)))
        if rho > 0:
            num = mp.sin(beta) * sh * mp.sinh(rho)
            dpsi = mp.atan2(num, mp.cosh(rho) * mp.cosh(rho_new) - ch)
        else:
            dpsi = beta
        return float(rho_new), float(psi + dpsi)


@pytest.mark.parametrize("rho0", [0.0, 1e-8, 0.5, 5.0, 50.0, 200.0])
def test_polar_step_matches_law_of_cosines(rho0):
    n1, n2 = np.random.default_rng(71).standard_normal((2, 64))
    rho, psi = np.full(64, rho0), np.linspace(-3.0, 3.0, 64)
    for dt in (0.05, 0.01):
        rho_new, psi_new = _polar_step(rho, psi, n1, n2, math.sqrt(2.0 * dt))
        ref = np.array([_law_of_cosines_step(rho0, p, a, b, dt) for p, a, b in zip(psi, n1, n2)])
        assert np.all(np.abs(rho_new - ref[:, 0]) <= 1e-12 * ref[:, 0])
        wrapped = np.mod(psi_new - ref[:, 1] + math.pi, 2.0 * math.pi) - math.pi
        assert np.max(np.abs(wrapped)) <= 1e-12


def test_disc_step_matches_polar_angle_increment():
    n1, n2 = np.random.default_rng(72).standard_normal((2, 1000))
    for dt in (0.05, 0.01):
        scale = math.sqrt(2.0 * dt)
        ell = scale * np.hypot(n1, n2)
        xi_old = np.exp(1j * np.arctan2(n2, n1)) * np.tanh(0.5 * ell)
        xi = _disc_jump(n1, n2, scale)
        assert np.array_equal(_disc_step(np.zeros(1000, complex), xi), xi)
        assert np.max(np.abs(xi - xi_old)) <= 1e-15


def test_zero_increment_is_identity():
    rho = np.array([0.0, 1e-8, 0.5, 5.0, 50.0, 200.0])
    psi = np.array([0.0, 1.0, -2.0, 3.0, 0.5, -0.5])
    zero = np.zeros(rho.size)
    rho_new, psi_new = _polar_step(rho, psi, zero, zero, 0.3)
    assert np.all(np.abs(rho_new - rho) <= 1e-15)
    assert np.array_equal(psi_new, psi)
    z = np.array([0.0, 0.3 - 0.4j, -0.99j])
    assert np.array_equal(_disc_step(z, _disc_jump(zero[:3], zero[:3], 0.3)), z)


def test_checkpoint_walk_draws_one_pair_per_grid_step():
    # 1600 jumps of 0.05 to t = 80, one uniform (2, n) pair each: no sliver
    # jump at a checkpoint
    n = 50
    gen, ref = np.random.default_rng(73), np.random.default_rng(73)
    sample_polar_endpoints(n, 80.0, 0.05, gen, checkpoints=[20.0, 40.0, 80.0])
    ref.random(2 * n * 1600)
    assert np.array_equal(gen.random(8), ref.random(8))


@pytest.mark.parametrize("checkpoints", [[40.0, 20.0, 80.0], [1.03, 2.0]])
def test_checkpoint_walk_lands_on_every_checkpoint(checkpoints):
    # the ensemble at each checkpoint equals a walk of exactly that length,
    # continued from the previous checkpoint with the same generator
    n = 64
    rho, psi = sample_polar_endpoints(
        n, max(checkpoints), 0.05, np.random.default_rng(74), checkpoints=checkpoints
    )
    gen = np.random.default_rng(74)
    t, start = 0.0, (0.0, 0.0)
    for i, target in enumerate(sorted(checkpoints)):
        r, p = sample_polar_endpoints(n, target - t, 0.05, gen, start=start)
        assert np.array_equal(r[-1], rho[i]) and np.array_equal(p[-1], psi[i])
        t, start = target, (r[-1], p[-1])


@pytest.mark.parametrize("checkpoints", [[], [-1.0, 1.0], [math.nan]])
def test_checkpoints_rejected(checkpoints):
    with pytest.raises(DiffusionError):
        sample_polar_endpoints(10, 2.0, 0.05, RngStream(1), checkpoints=checkpoints)


# ------------------------------------------------------------ heat kernel


def test_kernel_mass_conservation():
    for t in (0.25, 1.0, 4.0):
        assert abs(heat_kernel_mass(t) - 1.0) <= 1e-9


def test_kernel_monotone_in_rho():
    vals = [heat_kernel(r, 1.0) for r in np.linspace(0.0, 6.0, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_kernel_frozen_oracle_values():
    # frozen from heat_kernel_oracle before the main build
    assert heat_kernel(1.0, 1.0) == pytest.approx(0.041491183957822204, rel=1e-9)
    assert heat_kernel(0.5, 0.25) == pytest.approx(0.22363030933026712, rel=1e-9)
    assert heat_kernel(2.0, 4.0) == pytest.approx(0.0034467600529776536, rel=1e-9)


def test_kernel_matches_oracle_fresh():
    for rho, t in [(0.0, 0.5), (1.5, 1.0), (3.0, 2.0)]:
        assert heat_kernel(rho, t) == pytest.approx(
            heat_kernel_oracle(rho, t), rel=1e-8
        )


def _kernel_mp(mp, rho, t):
    """The kernel's integral in u (s = rho + u^2) by mpmath's tanh-sinh rule
    in 20-digit arithmetic, split at powers of 8 so that every scale from
    sqrt(1e-6) up is resolved.  The integrand carries a factor exp(rho/2)
    that keeps it O(1 + rho): mpmath stops on absolute error."""
    with mp.workdps(20):
        rho, t = mp.mpf(rho), mp.mpf(t)

        def integrand(u):
            s = rho + u * u
            gap = 2 * mp.sinh((s + rho) / 2) * mp.sinh(u * u / 2) * mp.exp(-rho)
            return 2 * u * s * mp.exp(-(s * s - rho * rho) / (4 * t)) / mp.sqrt(gap)

        val = mp.quad(integrand, [0] + [mp.mpf(8) ** k for k in range(-4, 2)] + [mp.inf])
        pref = mp.sqrt(2) * mp.exp(-t / 4 - rho * rho / (4 * t) - rho / 2)
        return pref / (8 * mp.pi ** 1.5 * t ** 1.5) * val


@pytest.mark.parametrize("t", [0.01, 0.05, 0.25, 1.0, 4.0, 20.0, 100.0])
def test_kernel_matches_mpmath(t):
    mp = pytest.importorskip("mpmath")
    rhos = [0.0, 2e-6, 1e-4, 0.01, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0]
    got = heat_kernel(np.array(rhos), t)
    checked = 0
    for rho, k in zip(rhos, got):
        want = _kernel_mp(mp, rho, t)
        if want > mp.mpf("1e-250"):
            assert abs(k - want) <= 1e-10 * want, (rho, t)
            checked += 1
    assert checked >= 4


def test_kernel_array_equals_scalar_calls():
    rho = np.array([[0.0, 5e-7, 2e-6, 0.1], [1.0, 3.0, 30.0, 800.0]])
    for t in (0.05, 1.0, 20.0):
        got = heat_kernel(rho, t)
        assert got.shape == rho.shape
        assert np.array_equal(got, [[heat_kernel(r, t) for r in row] for row in rho])


def _kernel_inputs():
    """Arrays longer than one of heat_kernel's blocks of 64 distances, with
    0, 5e-7 and 800 on either side of a block's edge, a 0-d array and
    empty arrays."""
    line = np.geomspace(1e-6, 700.0, 210)
    line[[0, 63, 64, 128, 199]] = 0.0, 5e-7, 800.0, 0.0, 5e-7
    return [line[:200], line.reshape(3, 70), np.array(1.5), np.array([]), np.empty((3, 0))]


@pytest.mark.parametrize("rho", _kernel_inputs(), ids=["200", "3x70", "0d", "empty", "3x0"])
def test_kernel_blocks_equal_scalar_calls(rho):
    for t in (0.05, 1.0, 20.0):
        got = heat_kernel(rho, t)
        assert np.shape(got) == rho.shape
        want = [heat_kernel(float(r), t) for r in rho.ravel()]
        assert np.array_equal(np.ravel(got), want)


# heat_kernel_mass at the kernel suite's times, and _radial_quantile at
# fixed keys, as computed before the kernel was evaluated in blocks and the
# table stored its Hermite pieces: a change that moves a bit of the
# kernel layer's law fails here
_MASS_PINS = {0.25: 1.0000000000000004, 1.0: 1.0, 4.0: 0.9999999999999999}
_QUANTILE_KEYS = [0.0, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0 - 2.0**-53]
_QUANTILE_PINS = {
    0.125: [0.0, 7.219319282545228e-07, 0.0007219321084835974, 0.022835194522739063,
            0.07237440438602276, 0.23432528836376007, 0.38717662561145516,
            0.6009045373211093, 0.8496135630115824, 1.0946540736313457, 1.8936469950606127,
            4.284655448405729],
    0.5: [0.0, 1.5352111706847317e-06, 0.0015352115454651209, 0.04855949789579539,
          0.15389793606712276, 0.4980147736026932, 0.8220906078757013, 1.2734197523479,
          1.7952912129913559, 2.305756710973592, 3.9488168501574545, 8.790619714523997],
    1.0: [0.0, 2.352102018858162e-06, 0.002352102547698183, 0.0743967294195593,
          0.23574201214536136, 0.7615233661065646, 1.2532653884499965, 1.9305404734903298,
          2.7026518526351833, 3.4485807153372163, 5.814055442413896, 12.786537170410156],
    20.0: [0.0, 0.0001517558863494704, 0.15167975341279624, 3.7571278080932036,
           7.635371251518611, 13.620253150303466, 17.24330293474626, 21.33203887786739,
           25.463220420395963, 29.205953213824216, 40.441048215595096, 71.88440803556348],
}


@pytest.mark.parametrize("t", sorted(_MASS_PINS))
def test_kernel_mass_pinned(t):
    assert heat_kernel_mass(t) == _MASS_PINS[t]


@pytest.mark.parametrize("gap", sorted(_QUANTILE_PINS))
def test_radial_quantile_pinned(gap):
    assert _radial_quantile(gap, np.array(_QUANTILE_KEYS)).tolist() == _QUANTILE_PINS[gap]


def test_kernel_near_diagonal_branch():
    # distances below 1e-6 collapse onto the exact rho = 0 evaluation
    assert heat_kernel(1e-9, 1.0) == heat_kernel(0.0, 1.0)


def test_kernel_rejects_bad_t():
    with pytest.raises(DiffusionError):
        heat_kernel(1.0, 0.0)
    with pytest.raises(DiffusionError):
        heat_kernel(1.0, -1.0)
    with pytest.raises(DiffusionError):
        heat_kernel(-0.5, 1.0)
    with pytest.raises(DiffusionError):
        heat_kernel(np.array([1.0, math.nan]), 1.0)
    with pytest.raises(DiffusionError):
        heat_kernel_mass(-1.0)
    with pytest.raises(DiffusionError):
        heat_kernel_mass(1.0, rho_max=0.0)
    with pytest.raises(DiffusionError):
        heat_kernel_mass(300.0)  # the grid would reach rho = 830, where sinh overflows


# ------------------------------------------------ exact checkpoint sampler


@pytest.mark.parametrize("gap", [0.125, 1.0, 4.0, 40.0, 100.0])
def test_radial_table_round_trip(gap):
    # heat_kernel_mass is an independent quadrature of the same radial law:
    # the mass inside the table's q-quantile is q
    qs = np.array([1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6])
    for q, rho in zip(qs, _radial_quantile(gap, qs)):
        assert abs(heat_kernel_mass(gap, rho_max=float(rho)) - q) <= 1e-9, (gap, q)


@pytest.mark.parametrize("gap", [0.01, 1.0, 100.0])
def test_radial_quantile_monotone(gap):
    u = np.linspace(0.0, 1.0 - 2.0**-53, 100001)
    rho = _radial_quantile(gap, u)
    assert rho[0] == 0.0
    assert np.all(np.diff(rho) >= 0.0) and np.all(np.isfinite(rho))


def test_radial_table_builds_without_warnings():
    # every table across the kernel's range builds warning-free, with s
    # strictly increasing and every slope finite: a rounded CDF that dips
    # and returns to 1 (gap 15) keeps one knot per s, and a far knot's
    # subnormal density (short gaps) overflows nothing.  Built uncached, so
    # a table cached by an earlier test cannot hide a warning
    gaps = np.concatenate([np.geomspace(0.01, 100.0, 41), [0.05, 0.5011872336272722, 15.0]])
    for gap in gaps:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (s, rho, slope, *_), _ = _radial_table.__wrapped__(float(gap))
        assert np.all(np.diff(s) > 0.0) and np.all(np.diff(rho) > 0.0), gap
        assert np.all(np.isfinite(slope)) and np.all(slope >= 0.0), gap


def _searched_quantile(gap, u):
    """_radial_quantile with its knot found by a full np.searchsorted."""
    (s, rho, slope, *_), _ = _radial_table(gap)
    x = np.sqrt(u)
    i = np.searchsorted(s, x, side="right") - 1
    s0 = s[i]
    h = s[i + 1] - s0
    t = (x - s0) / h
    r0 = rho[i]
    dr = rho[i + 1] - r0
    m0, m1 = slope[i] * h, slope[i + 1] * h
    return r0 + t * (m0 + t * ((3.0 * dr - 2.0 * m0 - m1) + t * (m0 + m1 - 2.0 * dr)))


@pytest.mark.parametrize("gap", [0.01, 0.5, 5.25 / 11, 1.0, 100.0])
def test_guided_quantile_matches_full_search(gap):
    # random keys, keys on every knot and one ulp to either side of it, and
    # the ends u = 0 and u just below 1: the guide finds the knot a full
    # search finds, so every rho is bit for bit the same
    (s, *_), guide = _radial_table(gap)
    assert 0 < np.sum(guide < 0) < guide.size // 10
    on_knots = s[:-1] ** 2
    keys = np.concatenate([
        RngStream(37).generator().random(100000), on_knots,
        np.nextafter(on_knots, 0.0), np.nextafter(on_knots, 1.0), [0.0, 1.0 - 2.0**-53],
    ])
    keys = keys[keys < 1.0]
    got = _radial_quantile(gap, keys)
    assert np.array_equal(got, _searched_quantile(gap, keys))
    assert np.array_equal(_radial_quantile(gap, keys[:1000].reshape(10, 100)), got[:1000].reshape(10, 100))


def _exact_cdf(gap, points=200):
    """The radial CDF at `points` radii by heat_kernel_mass, for np.interp."""
    grid = np.linspace(0.0, gap + 12.0 * math.sqrt(gap) + 4.0, points + 1)
    return grid, np.array([0.0] + [heat_kernel_mass(gap, rho_max=float(r)) for r in grid[1:]])


def _ks_distance(samples, grid, cdf):
    x = np.sort(samples)
    fx = np.interp(x, grid, cdf, right=1.0)
    i = np.arange(1, x.size + 1)
    return max(np.max(i / x.size - fx), np.max(fx - (i - 1) / x.size))


def test_heat_endpoints_radial_law_ks():
    # the 1% critical value at n = 1e5 is 1.628 / sqrt(n) = 0.00515; the
    # linear interpolation of the exact CDF is good to 3e-4
    n, gap = 100000, 1.0
    rho, psi = sample_heat_endpoints(n, gap, RngStream(31).generator())
    assert rho.shape == psi.shape == (1, n)
    assert _ks_distance(rho[-1], *_exact_cdf(gap)) <= 1.628 / math.sqrt(n)


def test_heat_endpoints_chapman_kolmogorov():
    # from a point off the origin, a jump of 0.5 followed by one of 1.5 has
    # the law of one jump of 2.0: two-sample KS on radius and angle at the 1%
    # critical value 1.628 sqrt(2 / n)
    n = 100000
    start = (1.0, 0.0)
    two, psi2 = sample_heat_endpoints(n, 2.0, RngStream(32).generator(), start=start,
                                      checkpoints=[0.5, 2.0])
    one, psi1 = sample_heat_endpoints(n, 2.0, RngStream(33).generator(), start=start)
    crit = 1.628 * math.sqrt(2.0 / n)
    for a, b in ((two[-1], one[-1]), (np.angle(np.exp(1j * psi2[-1])), np.angle(np.exp(1j * psi1[-1])))):
        a, b = np.sort(a), np.sort(b)
        grid = np.concatenate([a, b])
        d = np.max(np.abs(np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right"))) / n
        assert d <= crit


def test_heat_endpoints_zero_gap_returns_start():
    gen = RngStream(34).generator()
    rho, psi = sample_heat_endpoints(5, 1.0, gen, start=(0.7, 0.3), checkpoints=[0.0, 0.0, 1.0])
    assert np.all(rho[:2] == 0.7) and np.all(psi[:2] == 0.3)
    assert np.all(rho[2] != 0.7)
    gen = RngStream(34).generator()
    rho, psi = sample_heat_endpoints(5, 0.0, gen, start=(0.7, 0.3))
    assert np.all(rho == 0.7) and np.all(psi == 0.3)
    assert gen.random() == RngStream(34).generator().random()   # nothing drawn


def test_heat_endpoints_chain_long_gaps():
    # a gap of 300 is three jumps of 100, the top of heat_kernel's range
    a = sample_heat_endpoints(50, 300.0, RngStream(35).generator())
    b = sample_heat_endpoints(50, 300.0, RngStream(35).generator(), checkpoints=[100.0, 200.0, 300.0])
    assert np.array_equal(a[0][-1], b[0][-1]) and np.array_equal(a[1][-1], b[1][-1])
    assert np.all(np.isfinite(a[0])) and 250.0 < np.median(a[0]) < 350.0


@pytest.mark.parametrize("t_max, checkpoints, match", [
    (1.005, [1.0, 1.005], "below 0.01"),
    (0.005, None, "below 0.01"),
    (1e6 + 1.0, None, "jumps"),
    (math.inf, None, "finite"),
])
def test_heat_endpoints_refusals(t_max, checkpoints, match):
    with pytest.raises(DiffusionError, match=match):
        sample_heat_endpoints(10, t_max, RngStream(1).generator(), checkpoints=checkpoints)


@pytest.mark.parametrize("start, match", [
    ((np.zeros(5), 0.0), r"radius must be a scalar or of shape \(10,\), got shape \(5,\)"),
    ((0.0, np.zeros((10, 1))), r"angle must be a scalar or of shape \(10,\)"),
    ((math.nan, 0.0), "radius must be finite"),
    ((math.inf, 0.0), "radius must be finite"),
    ((0.0, np.array([0.0] * 9 + [math.nan])), "angle must be finite"),
    ((-1.0, 0.0), "radius must be >= 0"),
    ((np.array([0.5] * 9 + [-1e-300]), 0.0), "radius must be >= 0"),
])
def test_heat_endpoints_refuse_a_bad_start(start, match):
    # refused before anything is drawn
    gen = RngStream(1).generator()
    state = gen.bit_generator.state
    with pytest.raises(DiffusionError, match=match):
        sample_heat_endpoints(10, 1.0, gen, start=start)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("array_start", [False, True], ids=["origin", "array"])
def test_heat_endpoints_jump_memory(array_start):
    # one jump of 100000 walkers holds its (2, n) draw, the walkers and the
    # result, and forms its temporaries in tiles of 4096 walkers: about 7n
    # doubles at peak, where whole-ensemble temporaries peaked at 19n
    n = 100000
    gen = RngStream(37).generator()
    sample_heat_endpoints(10, 1.0, gen)  # the radial table, before tracing
    start = (np.full(n, 0.5), np.full(n, 1.0)) if array_start else (0.0, 0.0)
    tracemalloc.start()
    try:
        sample_heat_endpoints(n, 1.0, gen, start=start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n


def test_heat_endpoints_cold_and_warm_tables_agree():
    _radial_table.cache_clear()
    cold = sample_heat_endpoints(200, 3.0, RngStream(36).generator(), checkpoints=[1.0, 3.0])
    assert _radial_table.cache_info().currsize == 2
    warm = sample_heat_endpoints(200, 3.0, RngStream(36).generator(), checkpoints=[1.0, 3.0])
    assert all(np.array_equal(c, w) for c, w in zip(cold, warm))


# ---------------------------------------------------------------- diffuse


def test_diffuse_constant_exact():
    est, se = diffuse(constant_field(1.0), 2.0, 200, RngStream(10).generator())
    assert est == 1.0
    assert se == 0.0
    est0, _ = diffuse(constant_field(0.0), 1.0, 200, RngStream(10).generator())
    assert est0 == 0.0


def test_diffuse_odd_harmonic_vanishes():
    est, se = diffuse(real_part_field(), 1.0, 4000, RngStream(11).generator())
    assert abs(est) <= 3.0 * se


def test_diffuse_needs_samples():
    with pytest.raises(DiffusionError):
        diffuse(constant_field(1.0), 1.0, 50, RngStream(1).generator())


def test_diffuse_rejects_time_below_kernel_range():
    # one jump of t needs heat_kernel at t, validated from t = 0.01 up
    with pytest.raises(DiffusionError, match="0.01"):
        diffuse(real_part_field(), 0.005, 100, RngStream(1))


def test_diffuse_rejects_horizon_past_jump_limit():
    with pytest.raises(DiffusionError, match="jumps"):
        diffuse(real_part_field(), 2e6, 100, RngStream(1))


@pytest.fixture
def drawn_streams(monkeypatch):
    """Spy on every generator an RngStream hands out: the returned function
    gives the stream indices whose generator has drawn since (its bit
    generator's state moved), so a test fails on any draw it forbids."""
    handed = []
    make = RngStream.generator

    def spy(stream):
        gen = make(stream)
        handed.append((stream.stream_index, gen, gen.bit_generator.state))
        return gen

    monkeypatch.setattr(RngStream, "generator", spy)
    return lambda: {i for i, gen, state in handed if gen.bit_generator.state != state}


@pytest.mark.parametrize("c", [0.0, 1.0, 2.0, -0.3])
def test_constant_field_diffuses_exactly_and_draws_nothing(drawn_streams, c):
    # D_t c = c: no sample can change the mean, so none is drawn, from a
    # Generator or from any child of an RngStream
    f = constant_field(c)
    gen = np.random.default_rng(5)
    state = gen.bit_generator.state
    for t in (0.0, 0.5, 150.0):
        assert diffuse(f, t, 100, gen, start=(1.5, 0.25)) == (c, 0.0)
    assert gen.bit_generator.state == state
    assert diffuse(f, 1.0, 100, RngStream(5)) == (c, 0.0)
    stream = RngStream(6)
    rep = check_semigroup(f, 0.5, 0.5, 800, stream)
    assert (rep.lhs, rep.rhs, rep.lhs_se, rep.rhs_se, rep.passed) == (c, c, 0.0, 0.0, True)
    rep = check_dynkin(f, 1.0, 200, stream)
    assert (rep.lhs, rep.rhs, rep.passed) == (0.0, 0.0, True)
    assert drawn_streams() == set()
    assert check_circle_vs_diffusion(constant_field(1.0), [4.0, 8.0, 16.0, 32.0], 400,
                                     stream).errors == (0.0,) * 4
    assert drawn_streams() == set()


def test_dynkin_of_a_harmonic_field_draws_only_its_left_side(drawn_streams):
    # the Laplacian of Re(z) is marked constant 0: the quadrature nodes
    # child(11..18) are exact, only the left side's child(0) samples
    stream = RngStream(17)
    rep = check_dynkin(real_part_field(), 1.0, 800, stream)
    assert rep.rhs == 0.0 and rep.rhs_se == 0.0
    assert drawn_streams() == {stream.child(0).stream_index}
    assert real_part_field().laplacian_field().constant == 0.0
    assert dist_squared_field().laplacian_field().constant is None


_NAN = float("nan")


@pytest.mark.parametrize("n, t, start, rng", [
    (50, 1.0, (0.0, 0.0), RngStream(1)),
    (100, 0.005, (0.0, 0.0), RngStream(1)),
    (100, 2e6, (0.0, 0.0), RngStream(1)),
    (100, -1.0, (0.0, 0.0), RngStream(1)),
    (100, _NAN, (0.0, 0.0), RngStream(1)),
    (100, 1.0, (np.zeros(3), 0.0), RngStream(1)),
    (100, 1.0, (_NAN, 0.0), RngStream(1)),
    (100, 1.0, (-1.0, 0.0), RngStream(1)),
    (100, 1.0, (0.0, 0.0), 12345),
], ids=["few_samples", "short_t", "long_t", "negative_t", "nan_t", "start_shape",
        "nan_radius", "negative_radius", "bad_rng"])
def test_constant_field_refused_as_a_sampled_field(n, t, start, rng):
    messages = []
    for f in (real_part_field(), constant_field(1.0)):
        with pytest.raises(DiffusionError) as err:
            diffuse(f, t, n, rng, start=start)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("t, s", [(0.005, 1.0), (1.0, 0.005)], ids=["short_outer", "short_inner"])
def test_constant_semigroup_refused_as_a_sampled_one(t, s):
    # the walks a constant field skips still refuse what they would refuse
    messages = []
    for f in (real_part_field(), constant_field(1.0)):
        with pytest.raises(DiffusionError) as err:
            check_semigroup(f, t, s, 100, RngStream(2))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_constant_field_checks_still_refuse_a_generator():
    for check, args in ((check_semigroup, (0.5, 0.5, 100)), (check_dynkin, (1.0, 100))):
        with pytest.raises(DiffusionError, match="needs an RngStream"):
            check(constant_field(1.0), *args, np.random.default_rng(1))


def test_diffuse_from_offset_start():
    # rotational symmetry: diffusion of dist from a point at radius 1 equals
    # the same run restarted at the rotated point
    f = smoothed_dist_field()
    a, _ = diffuse(f, 0.5, 2000, RngStream(12).generator(), start=(1.0, 0.0))
    b, _ = diffuse(f, 0.5, 2000, RngStream(12).generator(), start=(1.0, 2.0))
    assert a == pytest.approx(b, abs=1e-12)


# ------------------------------------------------------------- semigroup


def test_semigroup_constant():
    rep = check_semigroup(constant_field(2.5), 0.5, 0.5, 200, RngStream(13))
    assert rep.lhs == pytest.approx(2.5, abs=1e-12)
    assert rep.rhs == pytest.approx(2.5, abs=1e-12)
    assert rep.passed


def test_semigroup_exp_dist():
    rep = check_semigroup(exp_neg_dist_field(), 0.5, 0.5, 800, RngStream(14))
    assert rep.passed, str(rep)


def test_semigroup_odd_harmonic():
    rep = check_semigroup(real_part_field(), 1.0, 1.0, 800, RngStream(15))
    assert rep.passed, str(rep)
    assert abs(rep.lhs) <= 3.0 * rep.lhs_se + 1e-12


# ----------------------------------------------------------------- dynkin


def test_dynkin_constant():
    rep = check_dynkin(constant_field(3.0), 1.0, 200, RngStream(16))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_dynkin_harmonic_bounded():
    rep = check_dynkin(real_part_field(), 1.0, 800, RngStream(17))
    assert rep.passed, str(rep)


def test_dynkin_dist_squared_analytic():
    rep = check_dynkin(dist_squared_field(), 1.0, 1500, RngStream(18))
    assert rep.passed, str(rep)


def test_dynkin_with_finite_difference_laplacian():
    # drop the analytic Laplacian: the 5-point stencil must carry the check
    base = dist_squared_field()
    fd_only = ScalarField(polar_fn=base.polar_fn, name="dist^2_fd")
    rep = check_dynkin(fd_only, 1.0, 1200, RngStream(19))
    assert rep.passed, str(rep)


def test_fd_laplacian_matches_analytic():
    # the vectorized stencil at the origin and at 99 points out to rho = 2.2
    rng = np.random.default_rng(21)
    rho = np.concatenate([[0.0], 2.2 * np.sqrt(rng.random(99))])
    psi = 2.0 * math.pi * rng.random(100)
    for f in [dist_squared_field(), smoothed_dist_field(), real_part_field()]:
        exact = f.polar_laplacian(rho, psi)
        approx = f.fd_laplacian(rho, psi)
        assert approx.shape == rho.shape
        assert np.allclose(approx, exact, rtol=1e-4, atol=1e-6)
        assert f.laplacian_field().value(DiscPoint.origin()) == exact[0]


# --------------------------------------------------------- circle average


def test_circle_average_constant():
    assert circle_average(constant_field(4.2), 2.0, 64) == pytest.approx(4.2, abs=1e-14)


def test_circle_average_odd_harmonic_exact_zero():
    assert circle_average(real_part_field(), 1.5, 64) == pytest.approx(0.0, abs=1e-14)


def test_circle_average_radial_field():
    dist = ScalarField(lambda rho, psi: np.asarray(rho, float))
    assert circle_average(dist, 3.0, 64) == pytest.approx(3.0, abs=1e-9)


def test_circle_average_needs_dirs():
    with pytest.raises(DiffusionError):
        circle_average(constant_field(1.0), 1.0, 4)


# ------------------------------------------------- circle vs diffusion fit


def test_circle_vs_diffusion_constant():
    rep = check_circle_vs_diffusion(
        constant_field(1.0), [4.0, 8.0, 16.0, 32.0], 400, RngStream(22)
    )
    assert max(rep.errors) <= 1e-12
    assert rep.passed


def test_circle_vs_diffusion_needs_radii():
    with pytest.raises(DiffusionError):
        check_circle_vs_diffusion(constant_field(1.0), [4.0, 8.0], 400, RngStream(23))


def oracle_slope(xs, ys):
    # independent least-squares slope (normal equations, no polyfit)
    lx, ly = np.log(xs), np.log(np.maximum(ys, 1e-15))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def test_circle_vs_diffusion_smoothed_dist():
    rep = check_circle_vs_diffusion(
        smoothed_dist_field(), [4.0, 8.0, 16.0, 32.0], 3000, RngStream(24)
    )
    assert rep.passed, str(rep)
    assert rep.slope == pytest.approx(
        oracle_slope(np.array(rep.abscissae), np.array(rep.errors)), abs=1e-9
    )
