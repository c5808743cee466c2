"""Brownian motion with generator the full Laplace-Beltrami operator on the
Poincare disc, plus the heat kernel and diffusion-operator checks.

Generator convention
--------------------
The sampler realizes the diffusion whose generator is Delta, NOT Delta/2
(probabilist libraries default to the latter).  Concretely a step of size dt
is a geodesic jump by the polar Gaussian increment
(sqrt(2 dt) N1, sqrt(2 dt) N2) in normal coordinates at the current point,
so E[rho^2] = 4 t for small t and the radial drift is asymptotically 1.

Every walker takes one increment per step: one draw
gen.standard_normal((2, n)) (standard_normal(2) in the scalar sample_path)
gives the normals (n1, n2); the jump has length sqrt(2 dt) |n| and
direction n / |n|, and no angle is formed.  The jump is applied in one of
two coordinate charts.  The raw chart stores points of the disc and is
limited to horizons t <~ 30, where the double-precision gap to
the unit circle still resolves the position.  The polar chart stores
(hyperbolic radius, angle) and updates them by the hyperbolic law of
cosines, which is stable out to arbitrary horizons; every long-horizon
statistic uses it.  Both ensemble walkers step on one time grid,
`_time_grid`; the polar walker lays it over each interval between
checkpoints, so it lands on every checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .hypgeo import DiscPoint, dist_P, mobius_point_chart, radius_for_R

__all__ = [
    "DiffusionError",
    "RngStream",
    "LeafPath",
    "ScalarField",
    "CheckReport",
    "SlopeReport",
    "sample_path",
    "sample_polar_endpoints",
    "heat_kernel",
    "heat_kernel_mass",
    "diffuse",
    "circle_average",
    "check_semigroup",
    "check_dynkin",
    "check_circle_vs_diffusion",
    "constant_field",
    "real_part_field",
    "exp_neg_dist_field",
    "dist_field",
    "smoothed_dist_field",
    "dist_squared_field",
    "pairwise_sum",
]

MAX_STEP = 0.05

# raw-coordinate positions are rejected past this radius; callers needing
# longer horizons must use the polar walker
_RAW_RADIUS_LIMIT = 30.0


class DiffusionError(ValueError):
    """Invalid sampler or operator parameters."""


def pairwise_sum(values) -> float:
    """Order-stable pairwise (tree) summation of a 1-D array."""
    arr = np.asarray(values, dtype=float)
    return float(np.add.reduce(arr))


def _mean_se(vals):
    """(pairwise-summed mean, standard error) of a 1-D sample."""
    n = vals.size
    mean = pairwise_sum(vals) / n
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(mean), se


# ------------------------------------------------------------------ streams


@dataclass(frozen=True)
class RngStream:
    """Reproducible stream: identical (master_seed, stream_index) pairs give
    bit-identical sequences, distinct pairs are statistically independent."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.master_seed, self.stream_index])

    def child(self, task_index: int) -> "RngStream":
        """Derived stream for a sub-task; mixing happens in the seed
        sequence, so child(0) differs from the parent."""
        return RngStream(self.master_seed, (self.stream_index << 20) ^ (task_index + 1))


def _resolve_rng(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DiffusionError(f"rng must be an RngStream or numpy Generator, got {type(rng)}")


# -------------------------------------------------------------- leaf paths


@dataclass(frozen=True)
class LeafPath:
    """Discretized leafwise path: time stamps, disc points, and the step used
    to generate it."""

    times: tuple
    points: tuple
    step: float

    def __post_init__(self):
        if len(self.times) != len(self.points) or not self.times:
            raise DiffusionError("times and points must be equal-length and nonempty")
        if self.times[0] != 0.0:
            raise DiffusionError("paths start at time 0")
        bound = 50.0 * math.sqrt(self.step) if self.step > 0 else math.inf
        prev_t = -1.0
        for i, t in enumerate(self.times):
            if t <= prev_t:
                raise DiffusionError("time stamps must increase strictly")
            prev_t = t
            if i > 0:
                d = dist_P(self.points[i - 1], self.points[i])
                if not math.isfinite(d) or d > bound:
                    raise DiffusionError(
                        f"segment {i - 1} has implausible length {d:.3g} for step {self.step}"
                    )

    @property
    def end(self) -> DiscPoint:
        return self.points[-1]

    def subpath(self, i0: int, i1: int) -> "LeafPath":
        """Shifted restriction to index range [i0, i1]; realizes the shift
        semigroup on discretized paths."""
        times = tuple(t - self.times[i0] for t in self.times[i0 : i1 + 1])
        return LeafPath(times, self.points[i0 : i1 + 1], self.step)


def _check_step_params(t_max: float, step: float):
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise DiffusionError(f"t_max must be finite and >= 0, got {t_max}")
    if not (math.isfinite(step) and 0.0 < step <= MAX_STEP):
        raise DiffusionError(f"step must lie in (0, {MAX_STEP}], got {step}")


def _time_grid(t_max: float, step: float):
    n_full = int(t_max / step)
    times = [i * step for i in range(n_full + 1)]
    if times[-1] < t_max - 1e-12:
        times.append(t_max)
    return times


def sample_path(start, t_max: float, step: float, rng) -> LeafPath:
    """Sample one Brownian path from `start`, kept in raw disc coordinates.

    Horizons are limited to roughly t ~ 30 by representability of points
    near the unit circle; long-horizon statistics use the polar ensemble
    walker instead.  Scalar arithmetic on purpose: numpy on one walker
    costs more than it saves.
    """
    _check_step_params(t_max, step)
    gen = _resolve_rng(rng)
    z0 = start.z if isinstance(start, DiscPoint) else complex(start)
    times = _time_grid(t_max, step)
    points = [DiscPoint(z0.real, z0.imag)]
    z = z0
    for i in range(1, len(times)):
        n1, n2 = gen.standard_normal(2)
        z = _disc_step_scalar(z, n1, n2, math.sqrt(2.0 * (times[i] - times[i - 1])))
        if 2.0 * math.atanh(min(abs(z), 1.0 - 1e-16)) > _RAW_RADIUS_LIMIT + 5.0:
            raise DiffusionError(
                "path left the raw-coordinate range; use sample_polar_endpoints "
                "for horizons beyond t ~ 30"
            )
        points.append(DiscPoint(z.real, z.imag))
    return LeafPath(tuple(times), tuple(points), step)


# ------------------------------------------------------------- increments

# |n| is floored here so that n = 0 gives a zero jump instead of 0/0
_TINY = np.finfo(float).tiny


def _increments(gen, n, t_max, step):
    """(n1, n2, scale) for each step of an n-walker ensemble on
    _time_grid(t_max, step); the jump is scale * (n1, n2)."""
    times = _time_grid(t_max, step)
    for dt in np.diff(times):
        n1, n2 = gen.standard_normal((2, n))
        yield n1, n2, math.sqrt(2.0 * dt)


def _disc_step(z, n1, n2, scale):
    """Raw-chart jump: move the origin's jump xi = tanh(l/2) n/|n|, with
    l = scale |n|, to z."""
    r = np.maximum(np.sqrt(n1 * n1 + n2 * n2), _TINY)
    xi = (n1 + 1j * n2) * (np.tanh(0.5 * scale * r) / r)
    return (xi + z) / (1.0 + np.conj(z) * xi)


def _disc_step_scalar(z, n1, n2, scale):
    """_disc_step for one walker, in Python scalars."""
    r = max(math.sqrt(n1 * n1 + n2 * n2), _TINY)
    k = math.tanh(0.5 * scale * r) / r
    xi = complex(n1 * k, n2 * k)
    return (xi + z) / (1.0 + z.conjugate() * xi)


def _polar_step(rho, psi, n1, n2, scale):
    """Polar-chart jump by scale * (n1, n2), in normal coordinates at the
    point (rho, psi) whose first axis points away from the origin.

    With u = exp(-2 rho), l = scale |n|, c = cosh l and
    (s1, s2) = sinh(l) n / |n|, the hyperboloid coordinates of the new point
    are (cosh rho', sinh rho' e^{i dpsi}) = exp(rho) / 2 * (w, x + i y), where
    w = (1+u) c + (1-u) s1, x = (1-u) c + (1+u) s1 and y = 2 sqrt(u) s2.
    So rho' = rho + log((w + |x + i y|) / 2) and dpsi = arg(x + i y): the
    exp(rho) factor is taken out analytically, which keeps full precision
    at every rho >= 0, and nothing cancels near the origin.
    """
    r = np.maximum(np.sqrt(n1 * n1 + n2 * n2), _TINY)
    ell = scale * r
    c = np.cosh(ell)
    sh_r = np.sinh(ell) / r
    s1 = sh_r * n1
    v = np.exp(-rho)
    u = v * v
    x = (1.0 - u) * c + (1.0 + u) * s1
    y = 2.0 * v * (sh_r * n2)
    w = (1.0 + u) * c + (1.0 - u) * s1
    return rho + np.log(0.5 * (w + np.sqrt(x * x + y * y))), psi + np.arctan2(y, x)


# ---------------------------------------------------------------- walkers


def _check_checkpoints(checkpoints, t_max):
    if checkpoints is None:
        return [t_max]
    cps = [float(c) for c in checkpoints]
    if not cps:
        raise DiffusionError("checkpoints must not be empty")
    if not all(math.isfinite(c) and c >= 0.0 for c in cps):
        raise DiffusionError(f"checkpoints must be finite and >= 0, got {cps}")
    if max(cps) > t_max + 1e-12:
        raise DiffusionError("checkpoints must not exceed t_max")
    return sorted(cps)


def sample_polar_endpoints(
    n_paths: int,
    t_max: float,
    step: float,
    rng,
    start=(0.0, 0.0),
    checkpoints=None,
):
    """Vectorized ensemble walker in (hyperbolic radius, angle) coordinates.

    `start` is (rho, psi); each may be a scalar or a length-n_paths array.
    Returns (rho, psi) arrays of shape (len(checkpoints), n_paths); the
    default is a single checkpoint at t_max.  The walk lands on every
    checkpoint: each interval between checkpoints is cut by _time_grid.
    Stable at any horizon.
    """
    _check_step_params(t_max, step)
    if n_paths < 1:
        raise DiffusionError("n_paths must be >= 1")
    gen = _resolve_rng(rng)
    checkpoints = _check_checkpoints(checkpoints, t_max)
    rho = np.full(n_paths, start[0], dtype=float)
    psi = np.full(n_paths, start[1], dtype=float)
    out_rho = np.empty((len(checkpoints), n_paths))
    out_psi = np.empty((len(checkpoints), n_paths))
    t = 0.0
    for i, target in enumerate(checkpoints):
        for n1, n2, scale in _increments(gen, n_paths, target - t, step):
            rho, psi = _polar_step(rho, psi, n1, n2, scale)
        out_rho[i] = rho
        out_psi[i] = psi
        t = target
    return out_rho, out_psi


def polar_separation(rho1, psi1, rho2, psi2):
    """Hyperbolic distance between polar points, stable when both radii are
    large: cosh d = cosh(r1 - r2) + 2 sinh r1 sinh r2 sin^2(dpsi / 2)."""
    half = 0.5 * (np.asarray(psi1) - np.asarray(psi2))
    s = np.sin(half)
    arg = np.cosh(np.asarray(rho1) - np.asarray(rho2)) + (
        2.0 * np.sinh(rho1) * np.sinh(rho2) * s * s
    )
    return np.arccosh(np.maximum(arg, 1.0))


def _disc_walk_endpoints(n_paths, t_max, step, gen, z0=0j):
    """Raw-coordinate ensemble endpoints (complex array) from z0, a scalar
    or a length-n_paths array; small horizons."""
    _check_step_params(t_max, step)
    z = np.full(n_paths, z0, dtype=complex)
    for n1, n2, scale in _increments(gen, n_paths, t_max, step):
        z = _disc_step(z, n1, n2, scale)
    if np.max(np.abs(z)) >= 1.0 - 1e-15:
        raise DiffusionError(
            "raw-coordinate walk left the representable disc; use the polar walker"
        )
    return z


# ------------------------------------------------------------ scalar data


@dataclass(frozen=True)
class ScalarField:
    """Real function on the disc with optional analytic structure.

    fn evaluates at a DiscPoint; polar_fn, when present, evaluates
    vectorized on (rho, psi) arrays and unlocks the long-horizon walker.
    The Laplacian is with respect to the curvature -1 metric.
    """

    fn: Callable
    laplacian: Optional[Callable] = None
    polar_fn: Optional[Callable] = None
    polar_laplacian: Optional[Callable] = None
    name: str = "field"

    def value(self, p: DiscPoint) -> float:
        return float(self.fn(p))

    def values_polar(self, rho, psi):
        if self.polar_fn is None:
            raise DiffusionError(f"field {self.name} has no polar form")
        return np.asarray(self.polar_fn(rho, psi), dtype=float)

    def values_disc(self, zs) -> np.ndarray:
        return np.array([self.fn(DiscPoint(z.real, z.imag)) for z in zs], dtype=float)

    def fd_laplacian(self, p: DiscPoint, h: float = 1e-3) -> float:
        """Intrinsic 5-point stencil with geodesic spacing h."""
        chart = mobius_point_chart(p)
        r = math.tanh(0.5 * h)
        total = 0.0
        for k in range(4):
            q = chart(DiscPoint.from_complex(r * complex(math.cos(k * math.pi / 2), math.sin(k * math.pi / 2))))
            total += self.value(q)
        return (total - 4.0 * self.value(p)) / (h * h)

    def laplacian_field(self) -> "ScalarField":
        if self.laplacian is not None:
            return ScalarField(
                fn=self.laplacian,
                polar_fn=self.polar_laplacian,
                name=f"lap({self.name})",
            )
        return ScalarField(fn=lambda p: self.fd_laplacian(p), name=f"fd_lap({self.name})")


def constant_field(c: float) -> ScalarField:
    return ScalarField(
        fn=lambda p: c,
        laplacian=lambda p: 0.0,
        polar_fn=lambda rho, psi: np.full_like(np.asarray(rho, dtype=float), c),
        polar_laplacian=lambda rho, psi: np.zeros_like(np.asarray(rho, dtype=float)),
        name=f"const({c})",
    )


def real_part_field() -> ScalarField:
    # harmonic and bounded: Delta Re(z) = 0 for the conformal Laplacian
    return ScalarField(
        fn=lambda p: p.re,
        laplacian=lambda p: 0.0,
        polar_fn=lambda rho, psi: np.tanh(0.5 * np.asarray(rho)) * np.cos(psi),
        polar_laplacian=lambda rho, psi: np.zeros_like(np.asarray(rho, dtype=float)),
        name="re(z)",
    )


def exp_neg_dist_field() -> ScalarField:
    return ScalarField(
        fn=lambda p: math.exp(-dist_P(DiscPoint.origin(), p)),
        polar_fn=lambda rho, psi: np.exp(-np.asarray(rho, dtype=float)),
        name="exp(-dist)",
    )


def dist_field() -> ScalarField:
    return ScalarField(
        fn=lambda p: dist_P(DiscPoint.origin(), p),
        polar_fn=lambda rho, psi: np.asarray(rho, dtype=float),
        name="dist",
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
        fn=lambda p: float(_smoothed_dist(dist_P(DiscPoint.origin(), p), eps)),
        laplacian=lambda p: float(
            _smoothed_dist_laplacian(dist_P(DiscPoint.origin(), p), eps)
        ),
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
        fn=lambda p: dist_P(DiscPoint.origin(), p) ** 2,
        laplacian=lambda p: float(lap(dist_P(DiscPoint.origin(), p))),
        polar_fn=lambda rho, psi: np.asarray(rho, dtype=float) ** 2,
        polar_laplacian=lambda rho, psi: lap(rho),
        name="dist^2",
    )


# ------------------------------------------------------------- heat kernel


def heat_kernel(rho: float, t: float) -> float:
    """Heat kernel of the curvature -1 disc at distance rho, time t, as a
    density against the hyperbolic area element.

    Classical integral representation, evaluated with the substitution
    s = rho + u^2 (removes the square-root singularity) and the identity
    cosh s - cosh rho = 2 sinh((s+rho)/2) sinh((s-rho)/2) (removes the
    cancellation), integrated by adaptive Gauss-Kronrod quadrature.
    """
    from scipy.integrate import quad

    if not (math.isfinite(t) and t > 0.0):
        raise DiffusionError(f"heat kernel needs t > 0, got {t}")
    if not (math.isfinite(rho) and rho >= 0.0):
        raise DiffusionError(f"heat kernel needs rho >= 0, got {rho}")
    if rho < 1e-6:
        rho = 0.0

    def integrand(u):
        s = rho + u * u
        gap = 2.0 * math.sinh(0.5 * (s + rho)) * math.sinh(0.5 * u * u)
        if gap <= 0.0:
            return 0.0
        return 2.0 * u * s * math.exp(-(s * s - rho * rho) / (4.0 * t)) / math.sqrt(gap)

    u_max = math.sqrt(math.sqrt(rho * rho + 400.0 * t + 400.0) - rho)
    val, _ = quad(integrand, 0.0, u_max, epsabs=1e-14, epsrel=1e-11, limit=200)
    prefactor = math.sqrt(2.0) * math.exp(-t / 4.0 - rho * rho / (4.0 * t)) / (
        8.0 * math.pi ** 1.5 * t ** 1.5
    )
    return prefactor * val


def heat_kernel_mass(t: float, rho_max: Optional[float] = None) -> float:
    """Radial quadrature of the kernel against the area element; equals 1
    when mass is conserved."""
    from scipy.integrate import quad

    if rho_max is None:
        rho_max = t + 30.0 * math.sqrt(t) + 10.0

    def integrand(rho):
        return heat_kernel(rho, t) * 2.0 * math.pi * math.sinh(rho)

    val, _ = quad(integrand, 0.0, rho_max, epsabs=1e-10, epsrel=1e-8, limit=200)
    return val


# ------------------------------------------------------- diffusion checks


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    lhs_se: float
    rhs_se: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @classmethod
    def compare(cls, name, lhs, lhs_se, rhs, rhs_se, detail, extra_tol=0.0) -> "CheckReport":
        """Two independent Monte Carlo estimates agree when |lhs - rhs| <=
        3 hypot(lhs_se, rhs_se) + extra_tol (floored at 1e-12)."""
        tol = max(3.0 * math.hypot(lhs_se, rhs_se) + extra_tol, 1e-12)
        return cls(name, lhs, rhs, lhs_se, rhs_se, tol, abs(lhs - rhs) <= tol, detail)

    @property
    def difference(self) -> float:
        return abs(self.lhs - self.rhs)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
            f"|diff|={self.difference:.3g} tol={self.tolerance:.3g}"
        )


@dataclass(frozen=True)
class SlopeReport:
    name: str
    abscissae: tuple
    errors: tuple
    slope: float
    threshold: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: slope={self.slope:.3f} threshold={self.threshold}"


def _endpoint_values(f: ScalarField, t, n, gen, step, start):
    """Field values at n Brownian endpoints started from `start`."""
    if f.polar_fn is not None:
        if isinstance(start, DiscPoint):
            rho0 = dist_P(DiscPoint.origin(), start)
            start = (rho0, math.atan2(start.im, start.re) if rho0 > 0 else 0.0)
        rhos, psis = sample_polar_endpoints(n, t, step, gen, start=start)
        return f.values_polar(rhos[-1], psis[-1])
    z0 = start.z if isinstance(start, DiscPoint) else complex(start)
    return f.values_disc(_disc_walk_endpoints(n, t, step, gen, z0))


def diffuse(
    f: ScalarField,
    t: float,
    n_samples: int,
    rng,
    start=DiscPoint.origin(),
    step: float = 0.01,
) -> tuple:
    """Monte Carlo estimate of the heat diffusion (D_t f)(start).

    Returns (estimate, std_error); the estimate is the pairwise-summed mean
    of f at sampled Brownian endpoints.
    """
    if n_samples < 100:
        raise DiffusionError("diffuse needs n_samples >= 100")
    if t < 0 or not math.isfinite(t):
        raise DiffusionError(f"diffuse needs finite t >= 0, got {t}")
    return _mean_se(_endpoint_values(f, t, n_samples, _resolve_rng(rng), step, start))


def circle_average(f: ScalarField, R: float, n_dirs: int) -> float:
    """Uniform direction-grid average of f on the hyperbolic circle of
    radius R about the origin (periodic trapezoid rule)."""
    if n_dirs < 8:
        raise DiffusionError("circle_average needs n_dirs >= 8")
    if R < 0 or not math.isfinite(R):
        raise DiffusionError(f"circle_average needs finite R >= 0, got {R}")
    thetas = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
    if f.polar_fn is not None:
        vals = f.values_polar(np.full(n_dirs, R), thetas)
    else:
        r = radius_for_R(R)
        vals = f.values_disc(r * np.exp(1j * thetas))
    return pairwise_sum(vals) / n_dirs


def check_semigroup(
    f: ScalarField,
    t: float,
    s: float,
    n: int,
    rng,
    inner_samples: int = 32,
    step: float = 0.01,
) -> CheckReport:
    """Does D_{t+s} f = D_t (D_s f) hold at the origin within Monte Carlo
    error?  The nested side subsamples `inner_samples` inner endpoints per
    outer endpoint."""
    if isinstance(rng, np.random.Generator):
        raise DiffusionError("check_semigroup needs an RngStream (it derives substreams)")
    gen_flat = rng.child(0).generator()
    gen_outer = rng.child(1).generator()
    gen_inner = rng.child(2).generator()

    lhs, lhs_se = diffuse(f, t + s, n, gen_flat, step=step)

    if f.polar_fn is not None:
        rhos, psis = sample_polar_endpoints(n, t, step, gen_outer)
        rho_i, psi_i = sample_polar_endpoints(
            n * inner_samples,
            s,
            step,
            gen_inner,
            start=(np.repeat(rhos[-1], inner_samples), np.repeat(psis[-1], inner_samples)),
        )
        inner_vals = f.values_polar(rho_i[-1], psi_i[-1]).reshape(n, inner_samples)
    else:
        z_outer = _disc_walk_endpoints(n, t, step, gen_outer)
        z_in = _disc_walk_endpoints(
            n * inner_samples, s, step, gen_inner, np.repeat(z_outer, inner_samples)
        )
        inner_vals = f.values_disc(z_in).reshape(n, inner_samples)

    rhs, rhs_se = _mean_se(inner_vals.mean(axis=1))
    return CheckReport.compare(
        f"semigroup({f.name}, t={t}, s={s})", lhs, lhs_se, rhs, rhs_se,
        {"n": n, "inner_samples": inner_samples},
    )


def check_dynkin(
    f: ScalarField,
    t: float,
    n: int,
    rng,
    n_nodes: int = 9,
    step: float = 0.01,
) -> CheckReport:
    """Does (D_t f)(0) - f(0) equal the time integral of (D_s Delta f)(0)?

    The right side is a trapezoid over an s-grid of diffusion estimates of
    the Laplacian; its quadrature error is estimated from second differences
    of the node values and added to the Monte Carlo tolerance.
    """
    lap = f.laplacian_field()
    if isinstance(rng, np.random.Generator):
        raise DiffusionError("check_dynkin needs an RngStream (it derives substreams)")
    lhs_val, lhs_se = diffuse(f, t, n, rng.child(0).generator(), step=step)
    f0 = f.value(DiscPoint.origin())
    lhs = lhs_val - f0

    s_grid = np.linspace(0.0, t, n_nodes)
    node_vals = np.empty(n_nodes)
    node_ses = np.empty(n_nodes)
    node_vals[0] = lap.value(DiscPoint.origin())
    node_ses[0] = 0.0
    for i, s in enumerate(s_grid[1:], start=1):
        v, se = diffuse(lap, s, n, rng.child(10 + i).generator(), step=step)
        node_vals[i] = v
        node_ses[i] = se
    h = s_grid[1] - s_grid[0]
    weights = np.full(n_nodes, h)
    weights[0] = weights[-1] = 0.5 * h
    rhs = float(np.dot(weights, node_vals))
    rhs_se = float(math.sqrt(np.sum((weights * node_ses) ** 2)))
    second_diffs = np.abs(np.diff(node_vals, 2))
    quad_term = float(h / 12.0 * np.sum(second_diffs)) + 1e-9
    return CheckReport.compare(
        f"dynkin({f.name}, t={t})", lhs, lhs_se, rhs, rhs_se,
        {"n": n, "n_nodes": n_nodes, "quad_term": quad_term}, extra_tol=quad_term,
    )


def check_circle_vs_diffusion(
    f: ScalarField,
    R_list,
    n: int,
    rng,
    n_dirs: int = 256,
    step: float = 0.02,
    threshold: float = 0.75,
) -> SlopeReport:
    """Circle averages against diffusion values at integer-part times.

    err(R) = |circle average at radius R - (D_[R] f)(0) estimate| should
    grow no faster than ~ sqrt(R log R); the check fits the log-log slope
    and passes when it stays below `threshold`.
    """
    R_list = sorted(R_list)
    if len(R_list) < 4:
        raise DiffusionError("circle-vs-diffusion needs at least 4 radii")
    if isinstance(rng, np.random.Generator):
        raise DiffusionError("check_circle_vs_diffusion needs an RngStream")
    errs = []
    for i, R in enumerate(R_list):
        ca = circle_average(f, R, n_dirs)
        de, _ = diffuse(f, float(int(R)), n, rng.child(i).generator(), step=step)
        errs.append(abs(ca - de))
    logs = np.log(np.maximum(errs, 1e-15))
    logR = np.log(np.asarray(R_list, dtype=float))
    slope = float(np.polyfit(logR, logs, 1)[0])
    return SlopeReport(
        name=f"circle_vs_diffusion({f.name})",
        abscissae=tuple(R_list),
        errors=tuple(float(e) for e in errs),
        slope=slope,
        threshold=threshold,
        passed=slope <= threshold,
    )
