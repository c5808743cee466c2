"""Brownian motion with generator the full Laplace-Beltrami operator on the
Poincare disc, plus the heat kernel.

Generator convention
--------------------
The samplers realize the diffusion whose generator is Delta, NOT Delta/2
(probabilist libraries default to the latter).  Concretely a walker moves
over a time t by one geodesic jump whose length follows the radial law
2 pi sinh(rho) K(rho, t) of the heat kernel K and whose direction is
uniform, so E[rho^2] = 4 t for small t and the radial drift is
asymptotically 1.

One sampler, one draw site
--------------------------
Every walker takes exact jumps (`_heat_jump_tiles`): a length from the
radial law through a cached inverse-CDF table of `heat_kernel`, and a
uniform angle, both from one uniform (2, n) draw per jump.  They carry no
step bias.  A tile spans many jumps of a small ensemble, or one jump of
at most 4096 walkers of a larger one; it is formed elementwise, so the
tile size never changes a result.
- `sample_heat_endpoints` applies them in the polar chart, one jump per
  gap between checkpoints: `validate.diffuse` and so the semigroup,
  Dynkin and circle checks, `validate.shadowing_report` and the cocycle
  suite (each walker at t = 1 and 2) use it.  `diffuse` draws nothing for
  a constant field, which it diffuses exactly.  A walk from the origin
  lands its first jump at the drawn polar point (length, psi + angle),
  which the law of cosines gives up to rounding; other jumps go through
  `_polar_step`.  Semigroup tests Chapman-Kolmogorov of the sampled law
  composed through `_polar_step`, and Dynkin tests that the kernel's
  generator is Delta; the mpmath tests of `heat_kernel` anchor both.
- The matrix routes' walk (`lyapunov._brownian_walk`) applies them in the
  raw chart, in whole rows (`_heat_jump_blocks`): `_disc_jump` forms a
  block's disc jumps at once, and one Mobius move `_disc_step` per gap of
  1 applies them, reducing every walker after each;
  `lyapunov._cadence_chain` walks them in the polar chart for `validate
  drift` and `validate uniformity`.
- `sample_polar_endpoints` and `sample_path` cut every gap into equal
  jumps of at most `step`, in the polar and the raw chart.  Nothing in the
  package calls them; they stay for the benchmark's layer timings.

The jump is applied in one of two coordinate charts.
The raw chart stores points of the disc: a walk that is not reduced into
the octagon is limited to horizons t <~ 30, where the double-precision gap
to the unit circle still resolves the position.  The polar chart stores
(hyperbolic radius, angle) and updates them by the hyperbolic law of
cosines, which is stable out to arbitrary horizons; every long-horizon
statistic uses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hypgeo import DiscPoint, dist_P

__all__ = [
    "DiffusionError",
    "RngStream",
    "LeafPath",
    "CheckReport",
    "sample_path",
    "sample_polar_endpoints",
    "sample_heat_endpoints",
    "heat_kernel",
    "heat_kernel_mass",
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


def sample_path(start, t_max: float, step: float, rng) -> LeafPath:
    """Sample one Brownian path from `start`, kept in raw disc coordinates:
    k = ceil(t_max / step) equal exact jumps of t_max / k, formed by
    _disc_jump and moved by _disc_step, recorded at the times j t_max / k.
    The refusals are those of _jump_counts.  Horizons are limited to
    roughly t ~ 30 by representability of points near the unit circle."""
    _check_step_params(t_max, step)
    (k,) = _jump_counts([t_max], step)
    gen = _resolve_rng(rng)
    z = start.z if isinstance(start, DiscPoint) else complex(start)
    points = [DiscPoint(z.real, z.imag)]
    for c, s, ell in _heat_jump_blocks(gen, 1, t_max / max(k, 1), k):
        for xi in _disc_jump(c, s, ell)[:, 0].tolist():
            z = _disc_step(z, xi)
            if 2.0 * math.atanh(min(abs(z), 1.0 - 1e-16)) > _RAW_RADIUS_LIMIT + 5.0:
                raise DiffusionError("path left the raw-coordinate range; use "
                                     "sample_heat_endpoints for horizons beyond t ~ 30")
            points.append(DiscPoint(z.real, z.imag))
    times = [j * t_max / k for j in range(k)] + [t_max]
    return LeafPath(tuple(times), tuple(points), step)


# ------------------------------------------------------------- increments

# |n| is floored here so that n = 0 gives a zero jump instead of 0/0
_TINY = np.finfo(float).tiny


def _disc_jump(n1, n2, scale):
    """The origin's jump xi = tanh(l/2) n/|n| for a direction n = (n1, n2),
    with l = scale |n|; scale broadcasts against n1 and n2.  An exact jump
    passes its unit direction and its length, a jump or a block of jumps
    (see _heat_jump_blocks)."""
    r = np.maximum(np.sqrt(n1 * n1 + n2 * n2), _TINY)
    return (n1 + 1j * n2) * (np.tanh(0.5 * scale * r) / r)


def _disc_step(z, xi):
    """Raw-chart step: move the origin's jump xi to z, for arrays or, in
    plain Python arithmetic, for complex scalars."""
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


def _polar_coordinates(p: DiscPoint):
    """(hyperbolic radius, angle) of a disc point; the angle of 0 is 0."""
    rho = dist_P(DiscPoint.origin(), p)
    return rho, math.atan2(p.im, p.re) if rho > 0 else 0.0


# ------------------------------------------------------------- heat kernel


def _gauss_legendre(edges, order):
    """Nodes and weights of the composite order-point Gauss-Legendre rule
    on the panels between consecutive edges, read-only."""
    # imported here: numpy.polynomial adds 5 ms and 2 MB to every cold start
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    nodes, weights = (a + 0.5 * (b - a) * (1.0 + x)).ravel(), (0.5 * (b - a) * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _kernel_rule():
    """The kernel's u-rule, in units of u_max: 12 equal panels, the first
    split into 11 panels halving toward u = 0, where for small rho the
    integrand turns over on the scale u ~ sqrt(rho) (rho >= 1e-6 after the
    collapse)."""
    return _gauss_legendre(
        np.concatenate([[0.0], 2.0 ** -np.arange(10.0, 0.0, -1.0) / 12.0, np.arange(1, 13) / 12.0]),
        12,
    )


@functools.cache
def _mass_rule():
    """The mass's rho-rule, in units of the upper limit: 12 equal panels."""
    return _gauss_legendre(np.linspace(0.0, 1.0, 13), 16)


# heat_kernel evaluates at most this many distances at a time, so each of
# its (distances x 264 nodes) temporaries stays near 135 KB: a radial
# table's 512 nodes in one pass peak at 6.6 MB of temporaries, against
# 1.0 MB in blocks
_KERNEL_BLOCK = 64


def _require_time(t):
    if not (math.isfinite(t) and t > 0.0):
        raise DiffusionError(f"heat kernel needs t > 0, got {t}")


def heat_kernel(rho, t: float):
    """Heat kernel of the curvature -1 disc at distance rho, time t, as a
    density against the hyperbolic area element.  rho is a distance or an
    array of distances; the result has its shape.

    Classical integral representation (McKean; Grigor'yan & Noguchi, Bull.
    LMS 30 (1998)), evaluated with the substitution s = rho + u^2 (removes
    the square-root singularity) and the identity
    cosh s - cosh rho = 2 sinh((s+rho)/2) sinh((s-rho)/2) (removes the
    cancellation), integrated over u in [0, u_max] by composite
    Gauss-Legendre panels that halve toward u = 0.  Within 1e-10 relative of
    a 20-digit evaluation wherever K > 1e-250 (t in [0.01, 100]).
    """
    _require_time(t)
    rho = np.asarray(rho, dtype=float)
    bad = ~(np.isfinite(rho) & (rho >= 0.0))
    if bad.any():
        raise DiffusionError(f"heat kernel needs rho >= 0, got {rho[bad][0]}")
    shape = rho.shape
    rho = np.where(rho < 1e-6, 0.0, rho).ravel()
    u_max = np.sqrt(np.sqrt(rho * rho + 400.0 * t + 400.0) - rho)
    prefactor = math.sqrt(2.0) * np.exp(-t / 4.0 - rho * rho / (4.0 * t)) / (
        8.0 * math.pi ** 1.5 * t ** 1.5
    )
    nodes, weights = _kernel_rule()
    sums = np.empty(rho.size)
    for lo in range(0, rho.size, _KERNEL_BLOCK):
        r = rho[lo : lo + _KERNEL_BLOCK, None]
        u = u_max[lo : lo + _KERNEL_BLOCK, None] * nodes
        s = r + u * u
        # the gap overflows only where s > 710, and its node then adds 0:
        # that node's share of the integral is ~exp(-(s - rho)/2), which
        # only matters for rho > 600, where K < 1e-250
        with np.errstate(over="ignore"):
            gap = 2.0 * np.sinh(0.5 * (s + r)) * np.sinh(0.5 * u * u)
        integrand = 2.0 * u * s * np.exp(-(s * s - r * r) / (4.0 * t)) / np.sqrt(gap)
        # a row sum, not a matmul: each row is summed in the order a scalar
        # call uses
        sums[lo : lo + _KERNEL_BLOCK] = np.sum(integrand * weights, axis=-1)
    return (prefactor * u_max * sums).reshape(shape)[()]


def heat_kernel_mass(t: float, rho_max: Optional[float] = None) -> float:
    """Radial quadrature of the kernel against the area element, one
    vectorized kernel evaluation on Gauss-Legendre panels in rho; equals 1
    when mass is conserved.  The integrand, ~exp(-(rho - t)^2 / 4t), is
    below e^-700 past rho = t + sqrt(2980 t), where the grid stops."""
    _require_time(t)
    if rho_max is None:
        rho_max = t + 30.0 * math.sqrt(t) + 10.0
    if not (math.isfinite(rho_max) and rho_max > 0.0):
        raise DiffusionError(f"heat kernel mass needs rho_max > 0, got {rho_max}")
    hi = min(rho_max, t + math.sqrt(2980.0 * t))
    if hi > 700.0:
        raise DiffusionError(f"heat kernel mass needs its grid below rho = 700, where "
                             f"sinh overflows; got {hi:.6g}")
    nodes, weights = _mass_rule()
    rho = hi * nodes
    return float(2.0 * math.pi * hi * ((heat_kernel(rho, t) * np.sinh(rho)) @ weights))


# ----------------------------------------------------- checkpoint jumps


# the radial table covers [0, gap + 30 sqrt(gap) + 10] with _TABLE_PANELS
# Gauss-Legendre panels of _TABLE_ORDER nodes, graded toward 0 (edges
# quadratic in the panel index), and resamples each panel at _TABLE_KNOTS
# knots for the inverse: on gaps 0.01..100 its u-error is below 1e-10 and
# its rho-error about 1e-10 relative between the 1% and 99% quantiles.
_TABLE_PANELS = 32
_TABLE_ORDER = 16
_TABLE_KNOTS = 128
# heat_kernel's validated range of t: shorter gaps are refused, longer ones
# are cut into equal pieces that lie inside it
_GAP_MIN = 0.01
_GAP_MAX = 100.0
# jumps per walk past this are refused, and so are ray steps past it on
# every route (lyapunov._walk_steps).  Every route's horizon stops where
# rays of 0.5 do, at 5000: a Brownian walk or chain, with gaps of 1, at
# half this many
MAX_JUMP_COUNT = 10**4
# _radial_quantile finds a key's knot through a guide table of _GUIDE_SIZE
# equal buckets of s = sqrt(u): 2-3% of keys land in a bucket holding more
# than one knot and are searched in full
_GUIDE_SIZE = 1 << 12
# _heat_jump_tiles forms jumps in tiles of at most this many uniforms: a
# small ensemble forms many jumps per numpy call, and a large one each
# jump in tiles of _JUMP_BLOCK // 2 walkers, so the polar step's 20-odd
# temporaries stay tile-sized (one jump of 100000 walkers peaks at 7
# doubles per walker, against 19 with whole-ensemble temporaries)
_JUMP_BLOCK = 1 << 13


@functools.cache
def _knot_maps():
    """(integral, value): matrices that take a panel's _TABLE_ORDER
    Gauss-Legendre node values of a function to the integral of its
    interpolant from the panel's start, and to the interpolant itself, at
    _TABLE_KNOTS equally spaced knots ending at the panel's end, on the
    reference panel [-1, 1]."""
    from numpy.polynomial import legendre

    x, w = legendre.leggauss(_TABLE_ORDER)
    # the interpolant's Legendre coefficients, by Gauss quadrature of f P_k,
    # which is exact at the interpolant's degree
    coef = (np.arange(_TABLE_ORDER)[:, None] + 0.5) * legendre.legvander(x, _TABLE_ORDER - 1).T * w
    knots = np.linspace(-1.0, 1.0, _TABLE_KNOTS + 1)[1:]
    integral = legendre.legvander(knots, _TABLE_ORDER) @ legendre.legint(coef, lbnd=-1, axis=0)
    return integral, legendre.legvander(knots, _TABLE_ORDER - 1) @ coef


@functools.lru_cache(maxsize=64)
def _radial_table(gap: float):
    """Inverse CDF of the radial law 2 pi sinh(rho) K(rho, gap), the
    distance Brownian motion travels in time gap, normalized by the table's
    own mass.

    The CDF F is known at every knot from the Gauss-Legendre interpolant of
    the density on its panel.  rho is interpolated against s = sqrt(F),
    which is smooth at rho = 0 where F ~ rho^2, by cubic Hermite pieces
    with slopes 2 s / density, capped at three secants on either side
    (Fritsch-Carlson), so every piece is increasing.  A knot whose s does
    not exceed every earlier knot's (past the point where F rounds to 1)
    is dropped.

    Returns (table, guide), both read-only.  table is a (7, knots) array:
    the knot rows s, rho and slope, then for the piece from knot i to
    knot i + 1 the rows h = s_{i+1} - s_i, m0 = slope_i h and the Horner
    coefficients c2 = 3 dr - 2 m0 - m1 and c3 = m0 + m1 - 2 dr, where
    m1 = slope_{i+1} h and dr = rho_{i+1} - rho_i.  These are the doubles a
    per-key evaluation forms from the knots; the last column of the piece
    rows is nan.  guide is _radial_quantile's guide table.
    """
    hi = gap + 30.0 * math.sqrt(gap) + 10.0
    edges = hi * np.linspace(0.0, 1.0, _TABLE_PANELS + 1) ** 2
    nodes, _ = _gauss_legendre(edges, _TABLE_ORDER)
    density = (2.0 * math.pi * np.sinh(nodes) * heat_kernel(nodes, gap)).reshape(
        _TABLE_PANELS, _TABLE_ORDER)
    integral, value = _knot_maps()
    width = np.diff(edges)[:, None]
    partial = 0.5 * width * (density @ integral.T)
    cdf = (np.cumsum(partial[:, -1]) - partial[:, -1])[:, None] + partial
    mass = cdf[-1, -1]
    s = np.sqrt(np.concatenate([[0.0], cdf.ravel() / mass]))
    rho = np.concatenate([[0.0], (edges[:-1, None] + width * np.arange(1, _TABLE_KNOTS + 1)
                                  / _TABLE_KNOTS).ravel()])
    # a zero or subnormal density at a far knot gives an infinite slope,
    # which the secant cap below replaces
    with np.errstate(divide="ignore", over="ignore"):
        slope = np.concatenate([[math.sqrt(mass / (math.pi * heat_kernel(0.0, gap)))],
                                2.0 * mass * s[1:] / np.maximum((density @ value.T).ravel(), 0.0)])
    # each knot is compared with the last kept one: where the rounded CDF
    # dips and comes back, the knot after the dip would repeat an s
    keep = np.concatenate([[True], s[1:] > np.maximum.accumulate(s)[:-1]])
    s, rho, slope = s[keep], rho[keep], slope[keep]
    h, dr = np.diff(s), np.diff(rho)
    secant = dr / h
    slope = np.minimum(slope, 3.0 * np.minimum(np.append(secant, np.inf), np.insert(secant, 0, np.inf)))
    m0, m1 = slope[:-1] * h, slope[1:] * h
    table = np.full((7, s.size), np.nan)
    table[:3] = s, rho, slope
    table[3:, :-1] = h, m0, 3.0 * dr - 2.0 * m0 - m1, m0 + m1 - 2.0 * dr
    # guide[j] is the last knot at or below j / _GUIDE_SIZE, or -1 where
    # the bucket [j, j + 1) / _GUIDE_SIZE holds more than one knot
    last = np.searchsorted(s, np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, side="right") - 1
    guide = np.where(np.diff(last) > 1, -1, last[:-1])
    table.flags.writeable = guide.flags.writeable = False
    return table, guide


def _radial_quantile(gap, u):
    """rho at the quantiles u in [0, 1) of the radial law at time gap: the
    cubic Hermite piece of _radial_table(gap) at s = sqrt(u), in the
    variable t = (s - s_i) / h on [s_i, s_i + h), evaluated in the Horner
    form rho_i + t (m0 + t (c2 + t c3)) from the piece's precomputed rows,
    each gathered alone by the key's knot.

    The piece's knot i is the last with s_i <= s, found from the guide:
    a bucket's guide knot is at or below every key in it, so one step up
    past at most one more knot finds i exactly, and the keys of crowded
    buckets are searched in full.  Every key gets the index a full search
    would give."""
    (s, rho, _, h, m0, c2, c3), guide = _radial_table(gap)
    x = np.sqrt(u)
    i = guide.take((x * _GUIDE_SIZE).astype(np.intp))
    crowded = np.nonzero(i < 0)
    i += s.take(i + 1) <= x
    if crowded[0].size:
        i[crowded] = np.searchsorted(s, x[crowded], side="right") - 1
    t = (x - s.take(i)) / h.take(i)
    return rho.take(i) + t * (m0.take(i) + t * (c2.take(i) + t * c3.take(i)))


def _heat_jump_tiles(gen, n, gap, count, width=_JUMP_BLOCK // 2):
    """`count` exact Brownian jumps of time gap for each of n walkers, as
    (cols, length, tile) for the walkers cols = slice(lo, lo + w) of b
    successive jumps: a length from the radial law through
    _radial_quantile and a uniform angle 2 pi u, from one
    gen.random((2, n)) draw per jump.  tile is the (b, 2, w) view of the
    draw with the angles written over tile[:, 1]; _directions writes the
    cosines over tile[:, 0], the uniforms the lengths used.

    b = max(1, _JUMP_BLOCK // 2n) jumps (the last block may be shorter)
    are drawn as one gen.random((b, 2, n)), bit for bit b successive
    (2, n) draws, and cut into column tiles of at most `width` walkers.
    Every operation on a tile is elementwise, so a row of it, and of
    anything formed from it elementwise, is bit for bit that of one jump
    formed alone: neither the block nor the tile size changes a result."""
    b = max(1, _JUMP_BLOCK // (2 * n))
    w = min(n, width)
    for first in range(0, count, b):
        u = gen.random((min(b, count - first), 2, n))
        for lo in range(0, n, w):
            tile = u[:, :, lo : lo + w]
            ell = _radial_quantile(gap, tile[:, 0])
            np.multiply(tile[:, 1], 2.0 * math.pi, out=tile[:, 1])
            yield slice(lo, lo + w), ell, tile


def _directions(tile):
    """(cos, sin) of the angles of a tile of _heat_jump_tiles, written
    over the tile."""
    return np.cos(tile[:, 1], out=tile[:, 0]), np.sin(tile[:, 1], out=tile[:, 1])


def _heat_jump_blocks(gen, n, gap, count):
    """The jumps of _heat_jump_tiles in whole rows, as the raw chart
    applies them: (cos, sin, length) blocks of shape (b, n), row j one
    jump, for _disc_jump(cos, sin, length)."""
    for _, ell, tile in _heat_jump_tiles(gen, n, gap, count, n):
        yield *_directions(tile), ell


def _jump_counts(gaps, max_gap):
    """ceil(gap / max_gap) for each gap: the equal jumps it is cut into.
    Refused before any draw: more than MAX_JUMP_COUNT jumps in all, which
    covers a gap / max_gap that overflows, and a jump shorter than _GAP_MIN
    (heat_kernel is validated for t in [_GAP_MIN, _GAP_MAX])."""
    counts = [math.ceil(min(g / max_gap, MAX_JUMP_COUNT + 1)) for g in gaps]
    if sum(counts) > MAX_JUMP_COUNT:
        raise DiffusionError(f"a walk to t = {sum(gaps):g} needs more than {MAX_JUMP_COUNT:,} "
                             f"jumps of at most {max_gap:g}, the most allowed")
    short = [g / k for g, k in zip(gaps, counts) if k and g / k < _GAP_MIN]
    if short:
        raise DiffusionError(f"a jump of {short[0]:.3g} is below {_GAP_MIN}: the heat "
                             f"kernel is validated for t in [{_GAP_MIN}, {_GAP_MAX:g}]")
    return counts


def _start_coordinates(n_paths, start):
    """New (n_paths,) arrays of the start (rho, psi), each a scalar or of
    shape (n_paths,), finite, with rho >= 0; anything else is refused."""
    rho, psi = (np.asarray(x, dtype=float) for x in start)
    for name, x in (("radius", rho), ("angle", psi)):
        if x.shape not in ((), (n_paths,)):
            raise DiffusionError(f"the start {name} must be a scalar or of shape "
                                 f"({n_paths},), got shape {x.shape}")
        if not np.isfinite(x).all():
            raise DiffusionError(f"the start {name} must be finite")
    if (rho < 0.0).any():
        raise DiffusionError("the start radius must be >= 0")
    return np.full(n_paths, rho), np.full(n_paths, psi)


def _walk_plan(n_paths, t_max, max_gap, rng, start, checkpoints):
    """Every refusal of _polar_walk, made before any draw; returns the
    start's (rho, psi) arrays, the generator, the sorted checkpoints, their
    gaps and each gap's jump count."""
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise DiffusionError(f"t_max must be finite and >= 0, got {t_max}")
    if n_paths < 1:
        raise DiffusionError("n_paths must be >= 1")
    rho, psi = _start_coordinates(n_paths, start)
    gen = _resolve_rng(rng)
    checkpoints = _check_checkpoints(checkpoints, t_max)
    gaps = np.diff(checkpoints, prepend=0.0).tolist()
    return rho, psi, gen, checkpoints, gaps, _jump_counts(gaps, max_gap)


def _polar_walk(n_paths, t_max, max_gap, rng, start, checkpoints):
    """(rho, psi) at each checkpoint of n_paths Brownian paths from `start`,
    in the polar chart: each gap between checkpoints is cut into
    ceil(gap / max_gap) equal exact jumps (_jump_counts), applied tile by
    tile by _polar_step.  From the origin (every start radius 0) the first
    jump lands at the drawn polar point (length, psi + angle) with no
    cos/sin and no _polar_step: the exact end point, which the law of
    cosines gives up to rounding (and with an angle in (-pi, pi])."""
    rho, psi, gen, checkpoints, gaps, counts = _walk_plan(
        n_paths, t_max, max_gap, rng, start, checkpoints)
    origin = not rho.any()
    out_rho = np.empty((len(checkpoints), n_paths))
    out_psi = np.empty((len(checkpoints), n_paths))
    for i, (gap, k) in enumerate(zip(gaps, counts)):
        for cols, ell, tile in _heat_jump_tiles(gen, n_paths, gap / max(k, 1), k):
            r, p = rho[cols], psi[cols]
            if origin:
                r, p = ell[0], p + tile[0, 1]
                ell, tile = ell[1:], tile[1:]
                # the first jump ends with the tile that ends its row
                origin = cols.stop < n_paths
            for c, s, length in zip(*_directions(tile), ell):
                r, p = _polar_step(r, p, c, s, length)
            rho[cols], psi[cols] = r, p
        out_rho[i] = rho
        out_psi[i] = psi
    return out_rho, out_psi


def sample_heat_endpoints(n_paths: int, t_max: float, rng, start=(0.0, 0.0), checkpoints=None):
    """Ensemble endpoints of Brownian motion, sampled exactly: one jump per
    gap between checkpoints.  Stable at any horizon.

    `start` is (rho, psi), each a scalar or a length-n_paths array, finite,
    with rho >= 0 (else DiffusionError, before any draw).
    Returns (rho, psi) arrays of shape (len(checkpoints), n_paths); the
    default is a single checkpoint at t_max.  Brownian motion is Markov and
    isotropic, so its position at the next checkpoint is one geodesic jump:
    a length from the radial law at the gap (an inverse-CDF table of
    heat_kernel) and a uniform direction, both from one
    gen.random((2, n_paths)) draw, applied by _polar_step (from the
    origin: at the drawn polar point).  A zero gap
    draws nothing; a gap in (0, 0.01) is refused (heat_kernel is validated
    for t in [0.01, 100]); a gap above 100 is cut into ceil(gap / 100)
    equal pieces.  More than MAX_JUMP_COUNT jumps in all is refused.
    """
    return _polar_walk(n_paths, t_max, _GAP_MAX, rng, start, checkpoints)


def sample_polar_endpoints(n_paths: int, t_max: float, step: float, rng, start=(0.0, 0.0),
                           checkpoints=None):
    """sample_heat_endpoints, with each gap between checkpoints cut into
    ceil(gap / step) equal exact jumps: the same law, at one jump per
    path-step.  The refusals are those of _jump_counts."""
    _check_step_params(t_max, step)
    return _polar_walk(n_paths, t_max, step, rng, start, checkpoints)


# ----------------------------------------------------------- check report


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
