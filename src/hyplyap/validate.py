"""The validation suites: one table, SUITES, with a row per suite, and the
checks its rows run.  The conversion check walks lyapunov's own Brownian
products and stays there (`lyapunov.check_exp_conversion`).

Engine functions are reached through their modules, as
`diffusion.sample_heat_endpoints(...)`, never by `from ... import`:
bench/tracer.py rebinds its wrappers, and the tests their patches, on
module attributes, so such calls stay spanned, counted and patchable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diffusion, hypgeo, lyapunov, surface

__all__ = [
    "SUITES",
    "ScalarField",
    "SlopeReport",
    "ShadowingReport",
    "UniformityReport",
    "diffuse",
    "circle_average",
    "check_semigroup",
    "check_dynkin",
    "check_circle_vs_diffusion",
    "constant_field",
    "real_part_field",
    "exp_neg_dist_field",
    "smoothed_dist_field",
    "dist_squared_field",
    "shadowing_report",
    "direction_distribution_check",
]


# ------------------------------------------------------------ scalar data


# geodesic spacing of the 5-point Laplacian stencil
_FD_SPACING = 1e-3


@dataclass(frozen=True)
class ScalarField:
    """Real function on the disc, in geodesic polar coordinates about 0.

    polar_fn evaluates vectorized on arrays of hyperbolic radius rho and
    angle psi.  polar_laplacian, when present, is its Laplacian for the
    curvature -1 metric in the same coordinates; without it the Laplacian
    is the 5-point stencil fd_laplacian.

    constant, when not None, is the value of a field that is constant, for
    which polar_fn must return it everywhere.  The heat kernel conserves
    mass, so D_t c = c: diffuse returns c exactly and draws nothing for
    such a field.  constant_field sets it, and laplacian_field marks as
    constant 0.0 the Laplacian of a field whose polar_laplacian is the
    zero function (constant_field's and real_part_field's).
    """

    polar_fn: Callable
    polar_laplacian: Optional[Callable] = None
    name: str = "field"
    constant: Optional[float] = None

    def value(self, p) -> float:
        return float(self.polar_fn(*diffusion._polar_coordinates(p)))

    def values_polar(self, rho, psi):
        return np.asarray(self.polar_fn(rho, psi), dtype=float)

    def fd_laplacian(self, rho, psi):
        """Intrinsic 5-point stencil with geodesic spacing _FD_SPACING,
        vectorized on (rho, psi): the four neighbours are polar jumps of
        that length along and across the outward radial direction."""
        h = _FD_SPACING
        total = sum(
            self.values_polar(*diffusion._polar_step(rho, psi, a, b, h))
            for a, b in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
        )
        return (total - 4.0 * self.values_polar(rho, psi)) / (h * h)

    def laplacian_field(self) -> "ScalarField":
        if self.polar_laplacian is _zero:
            return ScalarField(_zero, _zero, f"lap({self.name})", 0.0)
        if self.polar_laplacian is not None:
            return ScalarField(self.polar_laplacian, name=f"lap({self.name})")
        return ScalarField(self.fd_laplacian, name=f"fd_lap({self.name})")


def _zero(rho, psi):
    """The zero function: the Laplacian of a constant or harmonic field."""
    return np.zeros_like(np.asarray(rho, dtype=float))


def constant_field(c: float) -> ScalarField:
    return ScalarField(
        polar_fn=lambda rho, psi: np.full_like(np.asarray(rho, dtype=float), c),
        polar_laplacian=_zero,
        name=f"const({c})",
        constant=float(c),
    )


def real_part_field() -> ScalarField:
    # harmonic and bounded: Delta Re(z) = 0 for the conformal Laplacian
    return ScalarField(
        polar_fn=lambda rho, psi: np.tanh(0.5 * np.asarray(rho)) * np.cos(psi),
        polar_laplacian=_zero,
        name="re(z)",
    )


def exp_neg_dist_field() -> ScalarField:
    return ScalarField(
        polar_fn=lambda rho, psi: np.exp(-np.asarray(rho, dtype=float)),
        name="exp(-dist)",
    )


def _smoothed_dist(rho, eps=0.5):
    rho = np.asarray(rho, dtype=float)
    return np.sqrt(rho * rho + eps * eps) - eps


def _smoothed_dist_laplacian(rho, eps=0.5):
    # f(rho) = sqrt(rho^2 + eps^2) - eps, radial:
    # Delta f = f'' + coth(rho) f', with the rho -> 0 limit 2 f''(0)
    rho = np.asarray(rho, dtype=float)
    s = np.sqrt(rho * rho + eps * eps)
    fpp = eps * eps / (s * s * s)
    fp = rho / s
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cot = np.where(rho > 1e-8, 1.0 / np.tanh(np.where(rho > 0, rho, 1.0)), np.inf)
        out = np.where(rho > 1e-8, fpp + cot * fp, 2.0 / eps)
    return out


def smoothed_dist_field(eps: float = 0.5) -> ScalarField:
    """dist_P(0, .) smoothed at the origin; C^2 with bounded Laplacian."""
    return ScalarField(
        polar_fn=lambda rho, psi: _smoothed_dist(rho, eps),
        polar_laplacian=lambda rho, psi: _smoothed_dist_laplacian(rho, eps),
        name="smoothed_dist",
    )


def dist_squared_field() -> ScalarField:
    """dist_P(0,.)^2; smooth everywhere, Delta f = 2 + 2 rho coth(rho)."""

    def lap(rho):
        rho = np.asarray(rho, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(rho > 1e-8, 2.0 + 2.0 * rho / np.tanh(np.where(rho > 0, rho, 1.0)), 4.0)
        return out

    return ScalarField(
        polar_fn=lambda rho, psi: np.asarray(rho, dtype=float) ** 2,
        polar_laplacian=lambda rho, psi: lap(rho),
        name="dist^2",
    )


# ------------------------------------------------------- diffusion checks


@dataclass(frozen=True)
class SlopeReport:
    name: str
    abscissae: tuple
    errors: tuple
    slope: float
    threshold: float
    passed: bool


# inner endpoints per outer endpoint on the nested side of the semigroup check
_SEMIGROUP_INNER = 32
# the fewest endpoints diffuse averages, and so the fewest paths of the
# semigroup, Dynkin and circle checks
DIFFUSE_MIN_SAMPLES = 100
# trapezoid nodes in s of the Dynkin check
_DYNKIN_NODES = 9
# direction grid and log-log slope bound of the circle check
_CIRCLE_DIRS = 256
_CIRCLE_THRESHOLD = 0.75


def diffuse(
    f: ScalarField,
    t: float,
    n_samples: int,
    rng,
    start=hypgeo.DiscPoint.origin(),
) -> tuple:
    """Monte Carlo estimate of the heat diffusion (D_t f)(start), where
    start is a DiscPoint or polar (rho, psi).

    Returns (estimate, std_error); the estimate is the pairwise-summed mean
    of f at Brownian endpoints, each one exact jump of time t
    (sample_heat_endpoints).  A constant field (f.constant) is diffused
    exactly, D_t c = c: after every refusal of the sampled path, with the
    same messages, it returns (c, 0.0) and draws nothing from rng.
    """
    if n_samples < DIFFUSE_MIN_SAMPLES:
        raise diffusion.DiffusionError(f"diffuse needs n_samples >= {DIFFUSE_MIN_SAMPLES}")
    if t < 0 or not math.isfinite(t):
        raise diffusion.DiffusionError(f"diffuse needs finite t >= 0, got {t}")
    if isinstance(start, hypgeo.DiscPoint):
        start = diffusion._polar_coordinates(start)
    gen = diffusion._resolve_rng(rng)
    if f.constant is not None:
        diffusion._walk_plan(n_samples, t, diffusion._GAP_MAX, gen, start, None)
        return f.constant, 0.0
    rhos, psis = diffusion.sample_heat_endpoints(n_samples, t, gen, start=start)
    return diffusion._mean_se(f.values_polar(rhos[-1], psis[-1]))


def circle_average(f: ScalarField, R: float, n_dirs: int) -> float:
    """Uniform direction-grid average of f on the hyperbolic circle of
    radius R about the origin (periodic trapezoid rule)."""
    if n_dirs < 8:
        raise diffusion.DiffusionError("circle_average needs n_dirs >= 8")
    if R < 0 or not math.isfinite(R):
        raise diffusion.DiffusionError(f"circle_average needs finite R >= 0, got {R}")
    thetas = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    return diffusion.pairwise_sum(f.values_polar(np.full(n_dirs, R), thetas)) / n_dirs


def check_semigroup(f: ScalarField, t: float, s: float, n: int, rng) -> diffusion.CheckReport:
    """Does D_{t+s} f = D_t (D_s f) hold at the origin within Monte Carlo
    error?  The nested side subsamples _SEMIGROUP_INNER inner endpoints per
    outer endpoint.  Every side jumps exactly, so this is Chapman-Kolmogorov
    for the sampled law: one jump of t + s against a jump of t composed with
    jumps of s through _polar_step.  For a constant field both sides are
    exact (see diffuse): the walks' refusals still run, but nothing is
    drawn from child(0), child(1) or child(2)."""
    if isinstance(rng, np.random.Generator):
        raise diffusion.DiffusionError("check_semigroup needs an RngStream (it derives substreams)")
    gen_flat = rng.child(0).generator()
    gen_outer = rng.child(1).generator()
    gen_inner = rng.child(2).generator()

    lhs, lhs_se = diffuse(f, t + s, n, gen_flat)

    inner = _SEMIGROUP_INNER
    if f.constant is not None:
        diffusion._walk_plan(n, t, diffusion._GAP_MAX, gen_outer, (0.0, 0.0), None)
        diffusion._walk_plan(n * inner, s, diffusion._GAP_MAX, gen_inner, (0.0, 0.0), None)
        rhs, rhs_se = f.constant, 0.0
    else:
        rhos, psis = diffusion.sample_heat_endpoints(n, t, gen_outer)
        rho_i, psi_i = diffusion.sample_heat_endpoints(
            n * inner, s, gen_inner, start=(np.repeat(rhos[-1], inner), np.repeat(psis[-1], inner))
        )
        inner_vals = f.values_polar(rho_i[-1], psi_i[-1]).reshape(n, inner)
        rhs, rhs_se = diffusion._mean_se(inner_vals.mean(axis=1))
    return diffusion.CheckReport.compare(
        f"semigroup({f.name}, t={t}, s={s})", lhs, lhs_se, rhs, rhs_se,
        {"n": n, "inner_samples": inner},
    )


def check_dynkin(f: ScalarField, t: float, n: int, rng) -> diffusion.CheckReport:
    """Does (D_t f)(0) - f(0) equal the time integral of (D_s Delta f)(0)?

    The right side is a trapezoid over an s-grid of diffusion estimates of
    the Laplacian; its quadrature error is estimated from second differences
    of the node values and added to the Monte Carlo tolerance.  diffuse is
    exact for constant fields, so a constant f draws nothing, and a field
    whose Laplacian is marked constant (laplacian_field: constant_field,
    real_part_field) draws nothing at the nodes child(11..18).
    """
    lap = f.laplacian_field()
    if isinstance(rng, np.random.Generator):
        raise diffusion.DiffusionError("check_dynkin needs an RngStream (it derives substreams)")
    lhs_val, lhs_se = diffuse(f, t, n, rng.child(0).generator())
    f0 = f.value(hypgeo.DiscPoint.origin())
    lhs = lhs_val - f0

    n_nodes = _DYNKIN_NODES
    s_grid = np.linspace(0.0, t, n_nodes)
    node_vals = np.empty(n_nodes)
    node_ses = np.empty(n_nodes)
    node_vals[0] = lap.value(hypgeo.DiscPoint.origin())
    node_ses[0] = 0.0
    for i, s in enumerate(s_grid[1:], start=1):
        v, se = diffuse(lap, s, n, rng.child(10 + i).generator())
        node_vals[i] = v
        node_ses[i] = se
    h = s_grid[1] - s_grid[0]
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = 0.5 * h
    rhs = float(np.dot(weights, node_vals))
    rhs_se = float(math.sqrt(np.sum((weights * node_ses) ** 2)))
    second_diffs = np.abs(np.diff(node_vals, 2))
    quad_term = float(h / 12.0 * np.sum(second_diffs)) + 1e-9
    return diffusion.CheckReport.compare(
        f"dynkin({f.name}, t={t})", lhs, lhs_se, rhs, rhs_se,
        {"n": n, "n_nodes": n_nodes, "quad_term": quad_term}, extra_tol=quad_term,
    )


def check_circle_vs_diffusion(f: ScalarField, R_list, n: int, rng) -> SlopeReport:
    """Circle averages against diffusion values at integer-part times.

    err(R) = |circle average at radius R - (D_[R] f)(0) estimate| should
    grow no faster than ~ sqrt(R log R); the check fits the log-log slope
    and passes when it stays below _CIRCLE_THRESHOLD.
    """
    R_list = sorted(R_list)
    if not all(math.isfinite(R) and R > 0.0 for R in R_list) or len(set(R_list)) < 4:
        raise diffusion.DiffusionError(
            "circle-vs-diffusion needs at least 4 distinct radii, each finite and > 0")
    if isinstance(rng, np.random.Generator):
        raise diffusion.DiffusionError("check_circle_vs_diffusion needs an RngStream")
    errs = []
    for i, R in enumerate(R_list):
        ca = circle_average(f, R, _CIRCLE_DIRS)
        de, _ = diffuse(f, float(int(R)), n, rng.child(i).generator())
        errs.append(abs(ca - de))
    logs = np.log(np.maximum(errs, 1e-15))
    logR = np.log(np.asarray(R_list, dtype=float))
    slope = float(np.polyfit(logR, logs, 1)[0])
    return SlopeReport(
        name=f"circle_vs_diffusion({f.name})",
        abscissae=tuple(R_list),
        errors=tuple(float(e) for e in errs),
        slope=slope,
        threshold=_CIRCLE_THRESHOLD,
        passed=slope <= _CIRCLE_THRESHOLD,
    )


# ------------------------------------------------------------ diagnostics


@dataclass(frozen=True)
class ShadowingReport:
    t_values: tuple
    drift_median: tuple          # median of dist(omega_t, 0)/t
    shadow_quantiles: dict       # q -> tuple over t of normalized shadowing stat
    slope_shadow_95: float
    passed: bool


@dataclass(frozen=True)
class UniformityReport:
    n_bins: int
    n_paths: int
    statistic: float
    p_value: float
    passed: bool


def polar_separation(rho1, psi1, rho2, psi2):
    """Hyperbolic distance between polar points, stable when both radii are
    large: cosh d = cosh(r1 - r2) + 2 sinh r1 sinh r2 sin^2(dpsi / 2)."""
    half = 0.5 * (np.asarray(psi1) - np.asarray(psi2))
    s = np.sin(half)
    arg = np.cosh(np.asarray(rho1) - np.asarray(rho2)) + (
        2.0 * np.sinh(rho1) * np.sinh(rho2) * s * s
    )
    return np.arccosh(np.maximum(arg, 1.0))


def shadowing_report(n_paths, t_list, rng) -> ShadowingReport:
    """Distance between Brownian paths and their limiting geodesic rays.

    The paths are sampled exactly at the times in t_list, one jump per gap
    (sample_heat_endpoints).  The landing direction is approximated by the
    angular coordinate at the final sampled time; statistics are normalized
    by t^(1/2) (log t)^1.5 and the check passes when the 95th percentile
    shows no growth trend (fitted log-log slope <= 0.1)."""
    t_list = sorted(t_list)
    if not t_list:
        raise lyapunov.LyapunovError("shadowing needs a nonempty t_list")
    if t_list[-1] < 20.0:
        raise lyapunov.LyapunovError("shadowing needs max(t_list) >= 20")
    fit_ts = [t for t in t_list if t >= 10.0]
    if len(set(fit_ts)) < 2:
        raise lyapunov.LyapunovError(
            "shadowing slope fit needs at least two distinct horizons >= 10")
    rho, psi = diffusion.sample_heat_endpoints(
        n_paths, t_list[-1], lyapunov._ensemble_generator(rng), checkpoints=t_list)

    psi_final = psi[-1]
    qs = (50, 90, 95)
    shadow_q = {q: [] for q in qs}
    drift_median = []
    for i, t in enumerate(t_list):
        # normalizer degenerates below t ~ e; early entries report raw scale
        norm = max(math.sqrt(t) * math.log(max(t, math.e)) ** 1.5, 1e-9)
        d = polar_separation(rho[i], psi[i], np.full(rho.shape[1], float(t)), psi_final)
        # one partition serves all three quantiles
        for q, v in zip(qs, np.percentile(d, qs).tolist()):
            shadow_q[q].append(v / norm)
        drift_median.append(float(np.median(rho[i]) / t) if t > 0 else 0.0)

    fit_vals = [shadow_q[95][t_list.index(t)] for t in fit_ts]
    logt = np.log(np.asarray(fit_ts, dtype=float))
    log95 = np.log(np.maximum(fit_vals, 1e-12))
    slope = float(np.polyfit(logt, log95, 1)[0])
    return ShadowingReport(
        t_values=tuple(t_list),
        drift_median=tuple(drift_median),
        shadow_quantiles={q: tuple(v) for q, v in shadow_q.items()},
        slope_shadow_95=slope,
        passed=slope <= 0.1,
    )


def _chi2_sf(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-square with integer df >= 1 degrees of freedom:
    the regularized upper incomplete gamma Q(df/2, stat/2).  Q(k, x) is the
    Poisson sum e^-x sum_{j<k} x^j / j!; Q(k + 1/2, x) is erfc(sqrt x) plus
    sum_{j<k} e^-x x^(j+1/2) / Gamma(j + 3/2).  Each term is formed in log
    space, so large df cannot overflow."""
    x = 0.5 * stat
    if x <= 0.0:
        return 1.0
    k, odd = divmod(df, 2)
    c = 0.5 * odd
    lx = math.log(x)
    terms = [math.exp((j + c) * lx - x - math.lgamma(j + c + 1.0)) for j in range(k)]
    if odd:
        terms.append(math.erfc(math.sqrt(x)))
    return math.fsum(terms)


def direction_distribution_check(n_paths, t, n_bins, rng) -> UniformityReport:
    """Chi-square uniformity of the final angles of the chain the matrix
    routes run, _cadence_chain to time t.  (A single exact jump from the
    origin has a uniform angle by construction, so the check chains.)"""
    if t < 40.0:
        raise lyapunov.LyapunovError("direction check needs t >= 40 (direction nearly frozen)")
    if n_bins < 1:
        raise lyapunov.LyapunovError("need n_bins >= 1")
    if n_paths < n_bins:
        raise lyapunov.LyapunovError(
            f"the direction check needs n_paths >= n_bins = {n_bins}, got {n_paths}: with "
            f"fewer, a bin expects under one count, below Cochran's minimum for the "
            f"chi-square approximation")
    _, psi = lyapunov._cadence_chain(diffusion._resolve_rng(rng), n_paths, t)
    angles = np.mod(psi, 2.0 * np.pi)
    counts, _ = np.histogram(angles, bins=n_bins, range=(0.0, 2.0 * np.pi))
    expected = n_paths / n_bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    p = _chi2_sf(stat, n_bins - 1) if n_bins > 1 else 1.0
    return UniformityReport(
        n_bins=n_bins,
        n_paths=n_paths,
        statistic=stat,
        p_value=p,
        passed=p > 0.001,
    )


# ------------------------------------------------------------ the suites


def _row(name, lhs, rhs, tol, passed):
    """One check row, as cli writes it."""
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs), "tol": float(tol),
            "passed": bool(passed)}


def _report_row(r):
    """The row of a CheckReport."""
    return _row(r.name, r.lhs, r.rhs, r.tolerance, r.passed)


def _drift_row(med):
    """The median drift at t = 40, which the generator Delta puts at 1."""
    return _row("drift_median(t=40)", med, 1.0, 0.08, 0.92 <= med <= 1.08)


def _ray_lift_error(group, thetas, R):
    """Worst (position, direction) error of the geodesic route's rays,
    lifted back to the disc after every step of lyapunov._ray_walk: the
    deck map a surface._DeckMaps composes maps the reduced point w to the
    exact ray point tanh(r/2) e^{2 pi i theta} at arc length r, and turns
    the direction alpha at w to e^{2 pi i theta}.  The position error is
    the hyperbolic distance, the direction error Euclidean on the unit
    circle.  Keep R <= 12: the composed map alone is off by 3e-7 to 6e-7
    at R = 20."""
    thetas = np.asarray(thetas, dtype=float)
    maps = surface._DeckMaps(group, thetas.size)
    exact = np.exp(2j * np.pi * thetas)
    worst_z = worst_dir = 0.0
    walk = lyapunov._ray_walk(group._layout, maps, thetas, R, lyapunov._REDUCE_EVERY)
    for k, (w, alpha) in enumerate(walk, start=1):
        lifted, turn = maps.lift(w)
        target = math.tanh(0.5 * min(k * lyapunov._REDUCE_EVERY, R)) * exact
        # dist_P, elementwise
        dist = 2.0 * np.arctanh(np.abs(lifted - target) / np.abs(1.0 - np.conj(lifted) * target))
        worst_z = max(worst_z, float(dist.max()))
        worst_dir = max(worst_dir, float(np.abs(np.exp(1j * (alpha + turn)) - exact).max()))
    return worst_z, worst_dir


def _polar_step_error(gen, n):
    """Worst |d(start, _polar_step(start, jump)) - length| over n random
    jumps, the distance by polar_separation: starts at radius below 5 (past
    about 30 polar_separation's own rounding reaches 1e-3), any angle, unit
    directions and lengths below 3, all from one gen.random((4, n)).  The
    arccosh in polar_separation resolves a jump of length l to about
    1e-16 / l."""
    rho, psi, angle, ell = gen.random((4, n)) * np.array([[5.0], [2.0 * np.pi], [2.0 * np.pi], [3.0]])
    end = diffusion._polar_step(rho, psi, np.cos(angle), np.sin(angle), ell)
    return float(np.max(np.abs(polar_separation(rho, psi, *end) - ell)))


def _geometry(cfg, group, rep, rng):
    gen = rng.generator()
    worst = 0.0
    for _ in range(1000):
        rotation = hypgeo.MobiusMap(cmath.exp(1j * math.pi * gen.random()), 0j)
        m = hypgeo.mobius_translation(gen.random(), 3.0 * gen.random()) * rotation
        z = 0.95 * math.sqrt(gen.random()) * np.exp(2j * np.pi * gen.random())
        w = 0.95 * math.sqrt(gen.random()) * np.exp(2j * np.pi * gen.random())
        worst = max(worst, abs(hypgeo.dist_P(m(z), m(w)) - hypgeo.dist_P(z, w)))
    # the geodesic route's rays, lifted back by their deck words, and the
    # polar chart's jump, against the exact ray and the jump's length
    end, turn = _ray_lift_error(group, gen.random(32), 12.0)
    jump = _polar_step_error(gen, 1000)
    res = group.relator_residual()
    return [_row("isometry_invariance", worst, 0.0, 1e-10, worst <= 1e-10),
            _row("ray_lift", end, 0.0, 1e-8, end <= 1e-8 and turn <= 1e-12),
            _row("polar_step_length", jump, 0.0, 1e-10, jump <= 1e-10),
            _row("octagon_relator", res, 0.0, 1e-8, res <= 1e-8)]


def _cocycle(cfg, group, rep, rng):
    # every reduced point must map back to itself under its deck map, with
    # a representative inside the octagon's circumscribed disc.  Probes
    # 0.01 inside and outside each side's midpoint, and the origin, are
    # reduced in the same pass and located once more for their exact
    # letters: a point of the domain has the empty word, a point just
    # across side j the one letter of side j.  The 100 walkers are read
    # exactly at t = 1 (midpoints) and t = 2 (endpoints): a path's word
    # depends only on where it ends
    rho, psi = diffusion.sample_heat_endpoints(100, 2.0, rng.child(0).generator(),
                                               checkpoints=[1.0, 2.0])
    midpoints = np.exp(0.25j * math.pi * np.arange(8))
    probes = np.concatenate([math.tanh(0.5 * (group.inradius - 0.01)) * midpoints,
                             math.tanh(0.5 * (group.inradius + 0.01)) * midpoints, [0j]])
    points = np.concatenate([(np.tanh(0.5 * rho) * np.exp(1j * psi)).ravel(), probes])
    reps = points.copy()
    maps = surface._DeckMaps(group, reps.size)
    surface._reduce_ensemble(group._layout, reps, acc=maps)
    roundtrip = float(np.max(np.abs(maps.lift(reps)[0] - points)))
    outside = float(np.max(np.abs(reps))) - math.tanh(0.5 * group.circumradius)
    expected = [()] * 8 + [(group.neighbor_letter(j),) for j in range(1, 9)] + [()]
    _, words = surface._locate_all(probes, group)
    wrong = sum(w.letters != e for w, e in zip(words, expected))
    return [_row("identity_law", wrong, 0.0, 0.0, wrong == 0),
            _row("locate_roundtrip", roundtrip, 0.0, 1e-9, roundtrip <= 1e-9 and outside <= 1e-12)]


def _semigroup(cfg, group, rep, rng):
    cases = ((constant_field(1.0), 0.5, 0.5), (exp_neg_dist_field(), 0.5, 0.5),
             (real_part_field(), 1.0, 1.0))
    return [_report_row(check_semigroup(f, t, s, cfg.n_paths, rng.child(10 + i)))
            for i, (f, t, s) in enumerate(cases)]


def _dynkin(cfg, group, rep, rng):
    return [_report_row(check_dynkin(f, 1.0, cfg.n_paths, rng.child(20 + i))) for i, f
            in enumerate((constant_field(2.0), real_part_field(), dist_squared_field()))]


def _kernel(cfg, group, rep, rng):
    masses = {t: diffusion.heat_kernel_mass(t) for t in (0.25, 1.0, 4.0)}
    return [_row(f"kernel_mass(t={t})", mass, 1.0, 1e-9, abs(mass - 1.0) <= 1e-9)
            for t, mass in masses.items()]


def _circle(cfg, group, rep, rng):
    r = check_circle_vs_diffusion(smoothed_dist_field(), [4.0, 8.0, 16.0, 32.0], cfg.n_paths, rng)
    return [_row(r.name, r.slope, 0.0, r.threshold, r.passed)]


def _drift(cfg, group, rep, rng):
    # the chain the matrix routes walk, 40 exact jumps of 1 to t = 40;
    # shadowing's drift row reads one jump per checkpoint
    rho, _ = lyapunov._cadence_chain(rng.generator(), cfg.n_paths, 40.0)
    return [_drift_row(float(np.median(rho) / 40.0))]


def _shadowing(cfg, group, rep, rng):
    r = shadowing_report(cfg.n_paths, [20.0, 40.0, 80.0], rng)
    return [_row("shadowing_slope", r.slope_shadow_95, 0.0, 0.1, r.passed),
            _drift_row(r.drift_median[r.t_values.index(40.0)])]


def _uniformity(cfg, group, rep, rng):
    r = direction_distribution_check(cfg.n_paths, cfg.horizon, 32, rng)
    return [_row("direction_uniformity_p", r.p_value, 1.0, 0.001, r.passed)]


# the largest horizon validate:conversion accepts: beyond it an endpoint of
# its exact sampler can leave the representable disc (rho > ~35)
_CONVERSION_MAX_HORIZON = 12.0


def _conversion(cfg, group, rep, rng):
    eta = group.generators[0](0j)
    u = np.zeros(rep.dim)
    u[0] = 1.0
    if cfg.horizon > _CONVERSION_MAX_HORIZON:
        raise lyapunov.LyapunovError(
            f"validate:conversion needs horizon <= {_CONVERSION_MAX_HORIZON:g}: an "
            f"endpoint can leave the representable disc beyond it, and with a "
            f"larger n_paths even at or below it")
    return [_report_row(lyapunov.check_exp_conversion(rep, group, u, eta, cfg.horizon,
                                                      cfg.n_paths, cfg.step, rng))]


class Suite(NamedTuple):
    keys: dict                 # the run keys the suite reads, with their defaults
    min_paths: int             # the fewest paths its checks accept
    images: Optional[tuple]    # default g1..g4, if the suite reads a representation
    checks: Callable           # (cfg, group, rep, rng) -> its check rows


# every suite once, in `validate`'s order.  geometry (1000 maps) and cocycle
# (100 paths) have a fixed size, kernel draws nothing, and no suite reads
# step or n_dirs.  A diffusing suite averages at least DIFFUSE_MIN_SAMPLES
# endpoints per estimate, a median drift or a standard error needs two
# paths, and uniformity refuses fewer paths than bins itself.  conversion's
# images, diag(2, 1/2), I, I, I, are exact
SUITES = {
    "geometry": Suite({}, 0, None, _geometry),
    "cocycle": Suite({}, 0, None, _cocycle),
    "semigroup": Suite({"n_paths": 800}, DIFFUSE_MIN_SAMPLES, None, _semigroup),
    "dynkin": Suite({"n_paths": 1200}, DIFFUSE_MIN_SAMPLES, None, _dynkin),
    "kernel": Suite({}, 0, None, _kernel),
    "circle": Suite({"n_paths": 3000}, DIFFUSE_MIN_SAMPLES, None, _circle),
    "drift": Suite({"n_paths": 10000}, 2, None, _drift),
    "shadowing": Suite({"n_paths": 10000}, 2, None, _shadowing),
    "uniformity": Suite({"n_paths": 10000, "horizon": 60.0}, 0, None, _uniformity),
    "conversion": Suite({"n_paths": 2000, "horizon": 5.0}, 2,
                        (np.diag([2.0, 0.5]), np.eye(2), np.eye(2), np.eye(2)), _conversion),
}
