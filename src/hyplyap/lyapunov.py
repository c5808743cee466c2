"""Lyapunov-spectrum estimators over the genus-2 surface.

Three independent routes to the same spectrum:

* Brownian: grow the cocycle along Brownian paths and average
  log-norm rates (single-vector, operator-norm, and full QR-deflation
  variants).
* Geodesic: evaluate expansion rates along unit-speed geodesic rays with
  uniformly distributed directions.
* Diffusion: Benettin's QR deflation along Brownian paths at an integer
  horizon, on an ensemble of its own (`hyplyap run` keys the stream by
  route); `expectation_functions` extremizes the expected log growth over
  the directions of a subspace at such a horizon.

Plus the probabilistic diagnostics that justify swapping the routes:
radial drift, geodesic shadowing, and uniformity of limiting directions.
Shadowing samples the exact law at its checkpoints
(`diffusion.sample_heat_endpoints`); the uniformity check chains the
matrix routes' exact jumps (`_cadence_chain`).

Every route runs on one vectorized engine in two layers: the geometry layer
`surface._reduce_ensemble` emits deck letters and the algebra layer
`cocycle._MatrixAccumulator` consumes them; this module walks ensembles on
top of both.  `_reduce_ensemble` is the only domain-reduction kernel
(`surface.locate` is its one-point case), on a layout built once per group,
`FuchsianGroup._layout`.  Each round it tests all eight sides of every
walker in one real matrix product, finds the walkers that violate a side
by reading each walker's eight side booleans as one 64-bit word, and pulls
only those back across their smallest violated side in one in-place
Mobius update (walkers inside the inscribed disc are never tested, and
after the first round only the walkers that moved are) and reports the
round's (side, walker) arrays once.
`_MatrixAccumulator` is the only cocycle accumulator: it folds a round in
with one gathered matmul against the eight side images stacked as
(8, d, d), and drops the letters whose image is exactly the identity
before it gathers, bit for bit (on diag(2, 1/2) 6 of the 8 sides carry
one).  A path's matrix takes its letters on the right (crossing order).  The
spectrum routes read it through `_deflation_spectrum`, Benettin's QR
deflation of the accumulator transposed, whose left products have the same
singular-value growth and make the limiting frame estimate the flag at the
starting fiber: a QR per gap on the Brownian and diffusion routes, per
_RAY_REORTH_STEPS ray steps on the geodesic route.  Its QR is one batched
call, `_orthonormal_rows`: Gram-Schmidt with one re-orthogonalization pass
on the rows of every path's frame at once, giving Q^T and |diag R| for any
dimension and field; a real 2 x 2 frame takes the same two passes written
out on its four entry arrays, bit for bit.  The rates read whole products,
spilled into a log scale every _RESCALE_STEPS steps of the walk, Brownian
gaps and ray steps alike; the interval routes extremize over a subspace in
`_rate_range`.  One loop, `_fold`, runs every walk into its accumulator and
renormalizes it, by a QR or by a spill, at its cadence and after the last
step.

The disc is simply connected, so a lifted path's cocycle value depends
only on its endpoint tile, and the matrix routes need each walker only at
the reduction cadence _REDUCE_EVERY.  The one Brownian walker,
`_brownian_walk`, takes ceil(t / _REDUCE_EVERY) equal gaps; in each it
moves every walker once by an exact heat-kernel jump and reduces every
walker once.  The jumps come a block of gaps at a time
(`diffusion._heat_jump_blocks`), `diffusion._disc_jump` forms the disc
jumps of a whole block in one pass, and the Mobius move
`diffusion._disc_step` applies them gap by gap.  There is no step, no
guard and no partial reduction.  Every Brownian estimator, the conversion
check's left side included, walks through `_brownian_ensemble` (the
whole-product readouts through `_brownian_matrices`), which still
validates a `step` it does not read: the estimators keep `step` (and
Benettin `reorth_every`) in their signatures because the benchmark's
tracer and layer timings pass them.  `_cadence_chain` runs the same
jumps in the polar chart, without reduction, for the drift and uniformity
checks.  The ray tracker `_ray_walk` moves each ray exactly
(`_ray_step`), one step per _REDUCE_EVERY of arc length, and reduces
after every step; `_geodesic_matrices` folds its letters into products
over the direction grid `_direction_grid`, and `_ray_lift_error` lifts
its rays back for `validate geometry` through the deck maps that
`surface._DeckMaps` composes, in one array pass per step.  Each
estimator walks one ensemble on `rng.child(0)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import _MatrixAccumulator, cocycle_of_word, specialize
from .diffusion import (
    _GAP_MIN,
    MAX_JUMP_COUNT,
    CheckReport,
    RngStream,
    _check_step_params,
    _disc_jump,
    _disc_step,
    _heat_jump_blocks,
    _mean_se,
    _polar_coordinates,
    _polar_walk,
    _resolve_rng,
    pairwise_sum,
    polar_separation,
    sample_heat_endpoints,
)
from .hypgeo import DiscPoint
from .surface import _DeckMaps, _reduce_ensemble, locate

__all__ = [
    "LyapunovError",
    "SpectrumReport",
    "ExpansionSample",
    "ShadowingReport",
    "UniformityReport",
    "brownian_rate",
    "brownian_norm_rate",
    "benettin_spectrum",
    "geodesic_rate",
    "geodesic_norm_rate",
    "geodesic_norm_rates",
    "geodesic_spectrum",
    "diffusion_spectrum",
    "expansion_interval",
    "expectation_functions",
    "check_exp_conversion",
    "shadowing_report",
    "direction_distribution_check",
]

CLUSTER_GAP = 0.02


class LyapunovError(RuntimeError):
    """Estimator failure (degenerate frame, bad parameters)."""


# ------------------------------------------------------- ensemble engine

# the reduction cadence: a Brownian walk of length t takes ceil(t / 0.5)
# equal gaps, one exact jump and one full reduction each, and a ray one
# exact step per 0.5 of arc length; any cadence gives the same product
_REDUCE_EVERY = 0.5
# the whole-product readouts spill into their log scale every 8 steps of a
# walk, Brownian gaps and ray steps alike (4 units of time or arc length at
# _REDUCE_EVERY): a product outgrowing the 1e100 threshold by 1e208 in that
# time would need an exponent past 100
_RESCALE_STEPS = 8
# the geodesic spectrum's QR cadence: rays never cross back, so rounding
# grows with the net displacement.  On Sym^2 of the uniformizing
# representation at R = 60 the worst per-ray |log det| error (truth 0) is
# 7.3e-10 at a QR every 8 steps and 8.5e-12 at every step, which costs the
# route 29%.  (Brownian walkers cross a side and back: 5.2e-2 at a QR every
# 8 gaps, 6.3e-10 at every gap, so they take one per gap.)
_RAY_REORTH_STEPS = 8


def _ensemble_generator(rng):
    """The generator of an estimator's single ensemble: rng.child(0)."""
    if not isinstance(rng, RngStream):
        raise LyapunovError("pass an RngStream so the ensemble's stream is reproducible")
    return rng.child(0).generator()


def _walk_steps(t, gap, walk, unit="jumps"):
    """ceil(t / gap), the steps a walk of length t takes; more than
    MAX_JUMP_COUNT (t > 5000 at _REDUCE_EVERY), or a non-finite t, is a
    mistyped horizon and is refused before the walk starts."""
    t_max = MAX_JUMP_COUNT * gap
    if not t <= t_max:
        raise LyapunovError(f"{walk} at most {MAX_JUMP_COUNT:,} {unit} of {gap:g}: its length "
                            f"must be finite and at most {t_max:g}, got {t}")
    return math.ceil(t / gap)


def _brownian_walk(data, acc, gen, n, t, start=0j):
    """Walk n Brownian paths from `start` for time t, folding their deck
    letters into acc; yields the reduced positions z after each gap.

    The walk takes k = ceil(t / _REDUCE_EVERY) equal gaps of t / k.  Each
    gap moves every walker once, by an exact heat-kernel jump, and then
    reduces every walker into the octagon.  The jumps are drawn a block of
    gaps at a time (diffusion._heat_jump_blocks) and turned into disc jumps
    a block at a time by _disc_jump; both are elementwise, so every gap's
    jump is bit for bit the one a single gap's draw would give.  A gap
    below diffusion's _GAP_MIN, the shortest time its radial table covers,
    is refused; as t / k >= min(t, 1/4), that is a t below _GAP_MIN.  So
    is a walk of more than MAX_JUMP_COUNT gaps."""
    if not (math.isfinite(t) and t >= _GAP_MIN):
        raise LyapunovError(f"a Brownian walk needs finite t >= {_GAP_MIN}, got {t}")
    k = _walk_steps(t, _REDUCE_EVERY, "a Brownian walk takes")
    z = np.full(n, complex(start))
    _reduce_ensemble(data, z)  # initial reduction: not part of the word
    for c, s, ell in _heat_jump_blocks(gen, n, t / k, k):
        for xi in _disc_jump(c, s, ell):
            z = _disc_step(z, xi)
            _reduce_ensemble(data, z, acc=acc)
            yield z


def _brownian_ensemble(rep, group, t, n_paths, step, rng, start=0j):
    """An accumulator of n_paths identities and the Brownian walk from
    `start` that folds into it, one ensemble on rng.child(0).  `step` is
    validated as the step walkers validate it, and not read: the walk
    jumps exactly."""
    _check_step_params(t, step)
    data = group._layout
    acc = _MatrixAccumulator(rep, data, n_paths)
    return acc, _brownian_walk(data, acc, _ensemble_generator(rng), n_paths, t, start)


def _fold(walk, every, renormalize):
    """Run walk to its end, calling renormalize() after every `every` steps
    and after the last: the one loop of the spilled products (acc.rescale)
    and of the QR deflation alike."""
    k = 0
    for k, _ in enumerate(walk, start=1):
        if k % every == 0:
            renormalize()
    if k % every:
        renormalize()


def _brownian_matrices(rep, group, t, n_paths, step, rng, start=0j):
    """Cocycle matrices along the Brownian paths of _brownian_ensemble,
    rescaled every _RESCALE_STEPS gaps."""
    acc, walk = _brownian_ensemble(rep, group, t, n_paths, step, rng, start)
    _fold(walk, _RESCALE_STEPS, acc.rescale)
    return acc


def _cadence_chain(gen, n, t):
    """(rho, psi) of n Brownian paths from the origin at time t, walked as
    the matrix routes walk them: k = ceil(t / _REDUCE_EVERY) chained exact
    jumps of t / k, applied in the polar chart (diffusion._polar_walk).  A
    t below _GAP_MIN is refused, as is a chain of more than MAX_JUMP_COUNT
    jumps (_walk_steps)."""
    if not t >= _GAP_MIN:
        raise LyapunovError(f"a cadence chain needs t >= {_GAP_MIN}, got {t}")
    _walk_steps(t, _REDUCE_EVERY, "a cadence chain takes")
    rho, psi = _polar_walk(n, t, _REDUCE_EVERY, gen, (0.0, 0.0), None)
    return rho[0], psi[0]


def _ray_step(w, alpha, h):
    """Move rays at w with direction angles alpha by arc length h: the
    origin's step xi = tanh(h/2) e^{i alpha} moved to w by the Mobius map
    (xi + w) / (1 + conj(w) xi), which is exact for any h, with alpha
    transported by the map's derivative."""
    xi = math.tanh(0.5 * h) * np.exp(1j * alpha)
    den = 1.0 + np.conj(w) * xi
    return (xi + w) / den, alpha - 2.0 * np.arctan2(den.imag, den.real)


def _ray_walk(data, acc, thetas, R, spacing):
    """Walk the rays gamma_{0,theta} to arc length R, folding their deck
    letters into acc; yields the reduced positions w and direction angles
    alpha after each step.  Each ray takes _ray_steps of `spacing` (at
    most _REDUCE_EVERY; the last takes what is left of R) and is fully
    reduced after every step.  The spacing changes only rounding; more
    than MAX_JUMP_COUNT steps are refused."""
    if not (math.isfinite(spacing) and 0.0 < spacing <= _REDUCE_EVERY):
        raise LyapunovError(f"geodesic tracking needs 0 < spacing <= {_REDUCE_EVERY}")
    if not R > 0.0:
        raise LyapunovError(f"geodesic tracking needs R > 0, got {R}")
    steps = _walk_steps(R, spacing, "geodesic tracking needs", "steps")
    alpha = 2.0 * np.pi * np.asarray(thetas, dtype=float)
    w = np.zeros(alpha.size, complex)
    done = 0.0
    for _ in range(steps):
        h = min(spacing, R - done)
        done += h
        w, alpha = _ray_step(w, alpha, h)
        _reduce_ensemble(data, w, alpha, acc)
        yield w, alpha


def _direction_grid(n_dirs):
    """The uniform grid of ray directions, (i + 1/2) / n_dirs in turns."""
    return (np.arange(n_dirs) + 0.5) / n_dirs


def _geodesic_matrices(rep, group, thetas, R, spacing):
    """Cocycle matrices along the rays gamma_{0,theta} of _ray_walk,
    rescaled every _RESCALE_STEPS steps."""
    data = group._layout
    acc = _MatrixAccumulator(rep, data, np.size(thetas))
    _fold(_ray_walk(data, acc, thetas, R, spacing), _RESCALE_STEPS, acc.rescale)
    return acc


def _ray_lift_error(group, thetas, R):
    """Worst (position, direction) error of the geodesic route's rays,
    lifted back to the disc after every step of _ray_walk: the deck map a
    _DeckMaps composes maps the reduced point w to the exact ray point
    tanh(r/2) e^{2 pi i theta} at arc length r, and turns the direction
    alpha at w to e^{2 pi i theta}.  The position error is the hyperbolic
    distance, the direction error Euclidean on the unit circle.  Keep
    R <= 12: the composed map alone is off by 3e-7 to 6e-7 at R = 20."""
    thetas = np.asarray(thetas, dtype=float)
    maps = _DeckMaps(group, thetas.size)
    exact = np.exp(2j * np.pi * thetas)
    worst_z = worst_dir = 0.0
    walk = _ray_walk(group._layout, maps, thetas, R, _REDUCE_EVERY)
    for k, (w, alpha) in enumerate(walk, start=1):
        lifted, turn = maps.lift(w)
        target = math.tanh(0.5 * min(k * _REDUCE_EVERY, R)) * exact
        # dist_P, elementwise
        dist = 2.0 * np.arctanh(np.abs(lifted - target) / np.abs(1.0 - np.conj(lifted) * target))
        worst_z = max(worst_z, float(dist.max()))
        worst_dir = max(worst_dir, float(np.abs(np.exp(1j * (alpha + turn)) - exact).max()))
    return worst_z, worst_dir


# ----------------------------------------------------------- domain types


@dataclass(frozen=True)
class ExpansionSample:
    """Expansion rate along one geodesic ray."""

    theta: float
    R: float
    value: float
    vector: tuple = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise LyapunovError("expansion rate must be finite")


@dataclass(frozen=True)
class SpectrumReport:
    """Estimated Lyapunov spectrum with multiplicities and provenance.

    exponents/multiplicities/ci_halfwidths describe the clustered blocks;
    raw_exponents keeps the d per-index estimates the clustering was built
    from.  oseledec_basis holds the limiting deflation frame of the first
    path: trailing column spans estimate the Lyapunov filtration at the
    base fiber (only the flag is canonical at finite horizon).
    """

    exponents: tuple
    multiplicities: tuple
    ci_halfwidths: tuple
    oseledec_basis: np.ndarray
    method: str
    raw_exponents: tuple
    raw_ci: tuple
    exponent_sum: float
    exponent_sum_ci: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(map(math.isfinite, self.exponents + self.ci_halfwidths)):
            raise LyapunovError(
                f"non-finite spectrum estimate: exponents {self.exponents}, "
                f"ci half-widths {self.ci_halfwidths}"
            )
        if sum(self.multiplicities) != len(self.raw_exponents):
            raise LyapunovError("multiplicities must sum to the dimension")
        if any(b >= a for a, b in zip(self.exponents[:-1], self.exponents[1:])):
            raise LyapunovError("block exponents must decrease strictly")

    @property
    def dim(self) -> int:
        return len(self.raw_exponents)

    def rows(self):
        """Per-block rows for CSV emission."""
        out = []
        for i, (chi, mult, ci) in enumerate(
            zip(self.exponents, self.multiplicities, self.ci_halfwidths), start=1
        ):
            out.append({"index": i, "chi": chi, "multiplicity": mult, "ci_halfwidth": ci})
        return out


@dataclass(frozen=True)
class ShadowingReport:
    t_values: tuple
    drift_median: tuple          # median of dist(omega_t, 0)/t
    shadow_quantiles: dict       # q -> tuple over t of normalized shadowing stat
    slope_shadow_95: float
    passed: bool

    def __str__(self):
        lines = [f"shadowing over t={self.t_values} (normalization t^0.5 (log t)^1.5)"]
        for q in sorted(self.shadow_quantiles):
            vals = " ".join(f"{v:.3f}" for v in self.shadow_quantiles[q])
            lines.append(f"  shadow q{q:02d}: {vals}")
        lines.append(f"  95th-percentile log-log slope: {self.slope_shadow_95:+.3f}")
        lines.append(f"  drift medians: {['%.4f' % m for m in self.drift_median]}")
        lines.append("  pass" if self.passed else "  FAIL")
        return "\n".join(lines)


@dataclass(frozen=True)
class UniformityReport:
    n_bins: int
    n_paths: int
    statistic: float
    p_value: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] direction uniformity: chi2={self.statistic:.2f} "
            f"({self.n_bins} bins, {self.n_paths} paths), p={self.p_value:.4g}"
        )


# -------------------------------------------------------- Brownian rates


def brownian_rate(rep, group, v, t, n_paths, step, rng):
    """Mean single-vector growth rate (1/t) log(|A(omega,t) v| / |v|)
    over Brownian paths from the origin; returns (mean, std_error).  `step`
    is validated but not read: the walk jumps exactly."""
    if t < 1.0:
        raise LyapunovError("brownian_rate needs t >= 1")
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng)
    return _mean_se(acc.log_vector_growth(v) / t)


def brownian_norm_rate(rep, group, t, n_paths, step, rng):
    """Mean operator-norm growth rate (1/t) log |A(omega,t)|; `step` as in
    brownian_rate."""
    if t < 1.0:
        raise LyapunovError("brownian_norm_rate needs t >= 1")
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng)
    return _mean_se(acc.log_operator_norm() / t)


# -------------------------------------------------------------- Benettin


def benettin_spectrum(rep, group, t_max, step, reorth_every, n_paths, rng) -> SpectrumReport:
    """Full spectrum by QR deflation along Brownian paths: _deflation_spectrum
    of the Brownian walk to t_max, with one QR per gap of the walk (one per
    _REDUCE_EVERY time units).  A single path is refused: its exponents
    would have no standard error.

    `step` and `reorth_every` are validated (0 < step <= 0.05,
    reorth_every >= 1 with reorth_every * step <= 1) but not read: the walk
    jumps exactly from gap to gap, and the QR follows the gaps.

    Exponents whose estimates differ by less than max(0.02, 3 combined se)
    merge into one block: strict spectral gaps are not resolvable at finite
    horizon without a threshold.
    """
    if reorth_every < 1 or reorth_every * step > 1.0 + 1e-12:
        raise LyapunovError("need reorth_every >= 1 with reorth_every * step <= 1")
    return _brownian_spectrum(rep, group, t_max, n_paths, step, rng, "brownian", {"t_max": t_max})


def _brownian_spectrum(rep, group, t, n_paths, step, rng, method, provenance) -> SpectrumReport:
    """_deflation_spectrum of an ensemble of Brownian paths to time t, one QR
    per gap; the provenance gains the ensemble's size and stream."""
    if n_paths < 2:
        raise LyapunovError(f"an ensemble spectrum needs n_paths >= 2, got {n_paths}")
    acc, walk = _brownian_ensemble(rep, group, t, n_paths, step, rng)
    provenance.update(n_paths=n_paths, master_seed=rng.master_seed, stream_index=rng.stream_index)
    return _deflation_spectrum(acc, walk, 1, t, method, provenance)


def _deflation_spectrum(acc, walk, every, horizon, method, provenance) -> SpectrumReport:
    """Report of the products acc folds along walk, by the QR deflation of
    Benettin, Galgani, Giorgilli & Strelcyn (Meccanica 15, 1980).

    Letters arrive in crossing order, i.e. as right factors of each path's
    product M; its transpose M^T takes them as left factors with identical
    singular-value growth, so the frame is M^T.  Every `every` steps of the
    walk, and after its last (_fold), the frame is re-orthonormalized: one
    call of `_orthonormal_rows` orthonormalizes the rows of every path's M,
    which replace M, and their lengths after projection, |diag R|, add
    their logs to the path's log diagonal.  Each |diag R| below 1e-280 is
    refused as a degenerate frame.  The log diagonals / horizon are
    averaged across paths, and the first path's frame is the basis."""
    logr = np.zeros(acc.m.shape[:2])

    def reorthonormalize():
        acc.m, norms = _orthonormal_rows(acc.m)
        logr[:] += np.log(norms)

    _fold(walk, every, reorthonormalize)
    # sort per path: for products without generic alignment (commuting
    # images) the QR diagonal order is path-dependent, and the ensemble
    # average must estimate the sorted spectrum of A(omega, t)
    lams = np.sort(logr / horizon, axis=1)[:, ::-1]
    return _spectrum_from_samples(lams, acc.m[0].T.copy(), method, provenance)


def _orthonormal_rows(m):
    """Batched QR of the transposes of an (n, d, d) stack, real or complex.

    Gram-Schmidt with one re-orthogonalization pass on the rows of each
    m[p]: returns (q, norms) with q[p]'s rows orthonormal, rows 0..j of
    q[p] spanning what rows 0..j of m[p] span, and norms[p, j] > 0 the
    length of row j after projection.  So q[p] = Q^T and norms[p] =
    |diag R| for m[p]^T = Q R, the QR with a positive diagonal.  Projecting
    twice keeps q orthonormal to rounding ("twice is enough": Giraud,
    Langou, Rozloznik & van den Eshof, Numer. Math. 101 (2005)).  A real
    2 x 2 stack takes the written-out kernel `_orthonormal_rows_2x2`, any
    other the loop `_gram_schmidt_rows`; on a real 2 x 2 stack they give
    the same q and norms bit for bit, up to the sign of a zero entry of q.
    """
    if m.dtype == np.float64 and m.shape[1:] == (2, 2):
        return _orthonormal_rows_2x2(m)
    return _gram_schmidt_rows(m)


def _row_norms(nv):
    """nv, refused when a projected row is shorter than 1e-280."""
    if nv.min() < 1e-280:
        raise LyapunovError("frame degeneracy: QR diagonal underflow during deflation")
    return nv


def _gram_schmidt_rows(m):
    """_orthonormal_rows for any dimension and field.  The kernel runs on
    the (d, d, n) view, so each operation is one numpy call over all n
    paths."""
    a = m.transpose(1, 2, 0)  # a[j, :, p] is row j of m[p]
    q = np.empty(a.shape, m.dtype)
    norms = np.empty(a.shape[1:])
    for j in range(a.shape[0]):
        v = a[j]
        for _ in range(2 if j else 0):
            coef = np.einsum("icn,cn->in", q[:j].conj(), v)  # q_i^H v
            v = v - np.einsum("in,icn->cn", coef, q[:j])
        nv = _row_norms(np.sqrt(np.einsum("cn,cn->n", v.conj(), v).real, out=norms[j]))
        np.divide(v, nv, out=q[j])
    return q.transpose(2, 0, 1), norms.T


def _orthonormal_rows_2x2(m):
    """_orthonormal_rows of a real (n, 2, 2) stack: the loop's two-pass
    Gram-Schmidt written out on the four entry arrays, in the loop's order
    of operations, so q and norms match it bit for bit, up to the sign of
    a zero entry of q (the loop's einsum adds its terms to +0.0).  q comes
    back C-contiguous."""
    q = np.empty(m.shape)
    norms = np.empty(m.shape[:2])
    a, b = m[:, 0, 0], m[:, 0, 1]
    c, d = m[:, 1, 0], m[:, 1, 1]
    n0 = _row_norms(np.sqrt(a * a + b * b, out=norms[:, 0]))
    q00 = np.divide(a, n0, out=q[:, 0, 0])
    q01 = np.divide(b, n0, out=q[:, 0, 1])
    for _ in range(2):
        coef = q00 * c + q01 * d
        c = c - coef * q00
        d = d - coef * q01
    n1 = _row_norms(np.sqrt(c * c + d * d, out=norms[:, 1]))
    np.divide(c, n1, out=q[:, 1, 0])
    np.divide(d, n1, out=q[:, 1, 1])
    return q, norms


def _cluster(raw_sorted, se_sorted):
    """Greedy merge of adjacent exponents closer than the cluster gap."""
    blocks = [[0]]
    for i in range(1, len(raw_sorted)):
        prev = blocks[-1][-1]
        gap = raw_sorted[prev] - raw_sorted[i]
        tol = max(CLUSTER_GAP, 3.0 * math.hypot(se_sorted[prev], se_sorted[i]))
        if gap < tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


# -------------------------------------------------------- geodesic rates


def geodesic_rate(rep, group, theta, R, v, spacing=_REDUCE_EVERY) -> ExpansionSample:
    """Deterministic expansion rate (1/R) log(|A(gamma_theta, R) v| / |v|).

    Deterministic for a fixed operation order, but past R ~ 37 a float64
    ray is a shadowing pseudo-orbit, not the ray of theta: nudging every
    theta of the 256-direction grid by 1e-15 changes 0, 2 and 196 of its
    diag(2, 1/2) norm rates at R = 20, 30 and 40.
    """
    acc = _geodesic_matrices(rep, group, [theta], R, spacing)
    val = float(acc.log_vector_growth(v)[0]) / R
    return ExpansionSample(theta=float(theta) % 1.0, R=R, value=val, vector=tuple(np.ravel(v)))


def geodesic_norm_rate(rep, group, theta, R, spacing=_REDUCE_EVERY) -> ExpansionSample:
    """Deterministic maximal expansion rate (1/R) log |A(gamma_theta, R)|.

    Past R ~ 37 the float64 ray is a shadowing pseudo-orbit; see
    geodesic_rate.
    """
    acc = _geodesic_matrices(rep, group, [theta], R, spacing)
    val = float(acc.log_operator_norm()[0]) / R
    return ExpansionSample(theta=float(theta) % 1.0, R=R, value=val)


def geodesic_norm_rates(rep, group, R, n_dirs, spacing=_REDUCE_EVERY):
    """Operator-norm rates over the uniform direction grid; the grid average
    estimates the top exponent by the geodesic route."""
    if n_dirs < 1:
        raise LyapunovError("geodesic_norm_rates needs n_dirs >= 1")
    thetas = _direction_grid(n_dirs)
    acc = _geodesic_matrices(rep, group, thetas, R, spacing)
    return thetas, acc.log_operator_norm() / R


def _spectrum_from_samples(lams, basis, method, provenance) -> SpectrumReport:
    """Build a report from per-sample sorted log diagonals / horizon."""
    d = lams.shape[1]
    raw_sorted = np.array([pairwise_sum(lams[:, i]) / lams.shape[0] for i in range(d)])
    se_sorted = np.std(lams, axis=0, ddof=1) / math.sqrt(lams.shape[0])
    per_sum = lams.sum(axis=1)
    blocks = _cluster(raw_sorted, se_sorted)
    exponents, mults, cis = [], [], []
    for idx in blocks:
        exponents.append(float(np.mean(raw_sorted[idx])))
        mults.append(len(idx))
        cis.append(1.96 * float(np.sqrt(np.mean(se_sorted[idx] ** 2) / len(idx))))
    return SpectrumReport(
        exponents=tuple(exponents),
        multiplicities=tuple(mults),
        ci_halfwidths=tuple(cis),
        oseledec_basis=basis,
        method=method,
        raw_exponents=tuple(float(x) for x in raw_sorted),
        raw_ci=tuple(1.96 * float(s) for s in se_sorted),
        exponent_sum=float(np.mean(per_sum)),
        exponent_sum_ci=1.96 * float(np.std(per_sum, ddof=1) / math.sqrt(lams.shape[0])),
        provenance=provenance,
    )


def geodesic_spectrum(rep, group, R, n_dirs, spacing=_REDUCE_EVERY) -> SpectrumReport:
    """Full spectrum by the geodesic route: _deflation_spectrum of the rays
    of _ray_walk over the uniform direction grid, with one QR every
    _RAY_REORTH_STEPS ray steps."""
    if n_dirs < 8:
        raise LyapunovError("geodesic_spectrum needs n_dirs >= 8")
    acc = _MatrixAccumulator(rep, group._layout, n_dirs)
    walk = _ray_walk(group._layout, acc, _direction_grid(n_dirs), R, spacing)
    return _deflation_spectrum(acc, walk, _RAY_REORTH_STEPS, R, "geodesic",
                               {"R": R, "n_dirs": n_dirs, "spacing": spacing})


def diffusion_spectrum(rep, group, n, n_paths, step, rng) -> SpectrumReport:
    """Full spectrum by the expectation route: Benettin's estimator at the
    integer horizon n, under its own method label and provenance.  A horizon
    that is not a whole number >= 1 is refused, not rounded.  `step` is
    validated but not read: the walk jumps exactly.  A single path is
    refused, as in benettin_spectrum."""
    if not (n >= 1 and float(n).is_integer()):
        raise LyapunovError(f"diffusion_spectrum needs an integer horizon n >= 1, got {n}")
    return _brownian_spectrum(rep, group, float(n), n_paths, step, rng, "diffusion",
                              {"n": int(n)})


# ---------------------------------------------- interval / expectation ops


def _sphere_sample(m_real: int, n_vectors: int):
    """Deterministic quasi-uniform sample of the unit sphere in R^m."""
    if m_real == 1:
        return np.array([[1.0]])
    if m_real == 2:
        phi = 2.0 * np.pi * (np.arange(n_vectors) + 0.5) / n_vectors
        return np.column_stack([np.cos(phi), np.sin(phi)])
    if m_real == 3:
        # Fibonacci lattice
        i = np.arange(n_vectors) + 0.5
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        zc = 1.0 - 2.0 * i / n_vectors
        r = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
        phi = 2.0 * np.pi * i / golden
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), zc])
    # Halton points (indices 1..n) pushed through the Gaussian quantile,
    # then normalized; statistics (with decimal and fractions) costs every
    # cold start 2 MB, so only this branch imports it
    from statistics import NormalDist

    idx = np.arange(1, n_vectors + 1)
    h = np.column_stack([_radical_inverse(idx, p) for p in _primes(m_real)])
    g = np.vectorize(NormalDist().inv_cdf)(np.clip(h, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _primes(m: int):
    """The first m primes."""
    primes = []
    k = 2
    while len(primes) < m:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _radical_inverse(idx, base: int):
    """Van der Corput radical inverse of the integers idx in the given base:
    the digits of idx mirrored about the radix point."""
    out = np.zeros(idx.shape)
    scale = 1.0 / base
    while np.any(idx > 0):
        idx, digit = np.divmod(idx, base)
        out += digit * scale
        scale /= base
    return out


def _embed(vs_real, basis, complex_field):
    """Real sphere coordinates -> unit vectors in the span of basis columns."""
    if complex_field:
        m = basis.shape[1]
        coef = vs_real[:, :m] + 1j * vs_real[:, m:]
    else:
        coef = vs_real
    vecs = coef @ basis.T
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / norms


# the deterministic sphere grid the interval routes start from, in points
_N_VECTORS = 64
# golden-section evaluation budget of each extremum, shared by the axes
_REFINE_ITERS = 40


def _optimize_rate(objective, m_real):
    """Min and max of a smooth projective function on the unit sphere:
    deterministic grid of _N_VECTORS points, then golden-section refinement
    in the top-scoring 2-plane coordinates around each incumbent."""
    vs = _sphere_sample(m_real, _N_VECTORS)
    vals = objective(vs)
    lo_i, hi_i = int(np.argmin(vals)), int(np.argmax(vals))
    lo = _refine_extremum(objective, vs, lo_i, minimize=True)
    hi = _refine_extremum(objective, vs, hi_i, minimize=False)
    return lo, hi


def _refine_extremum(objective, vs, idx, minimize):
    v = vs[idx].copy()
    best = float(objective(v[None, :])[0])
    m = v.size
    if m == 1:
        return best
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for axis in range(m):
        e = np.zeros(m)
        e[axis] = 1.0
        if abs(abs(np.dot(e, v)) - 1.0) < 1e-12:
            continue
        # golden-section on the rotation angle in the (v, e') plane
        e = e - np.dot(e, v) * v
        e /= np.linalg.norm(e)

        def val(ang):
            w = math.cos(ang) * v + math.sin(ang) * e
            return float(objective(w[None, :])[0])

        a, b = -0.35, 0.35
        c1 = b - gr * (b - a)
        c2 = a + gr * (b - a)
        f1, f2 = val(c1), val(c2)
        for _ in range(_REFINE_ITERS // m + 8):
            better = (f1 < f2) if minimize else (f1 > f2)
            if better:
                b, c2, f2 = c2, c1, f1
                c1 = b - gr * (b - a)
                f1 = val(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + gr * (b - a)
                f2 = val(c2)
        ang = 0.5 * (a + b)
        cand = math.cos(ang) * v + math.sin(ang) * e
        cv = val(ang)
        if (cv < best) if minimize else (cv > best):
            best = cv
            v = cand / np.linalg.norm(cand)
    return best


def _real_dim(basis, complex_field):
    m = basis.shape[1]
    return 2 * m if complex_field else m


def _rate_range(acc, horizon, basis, complex_field):
    """(min, max) over unit vectors v in the span of the basis columns of
    the mean rate log(|M_p v|) / horizon over the products M_p in acc."""

    def objective(vs_real):
        vecs = _embed(vs_real, basis, complex_field)
        img = np.einsum("pij,nj->pni", acc.m, vecs)
        logs = np.log(np.linalg.norm(img, axis=2)) + acc.log_scale[:, None]
        return logs.mean(axis=0) / horizon

    a, b = _optimize_rate(objective, _real_dim(basis, complex_field))
    return min(a, b), max(a, b)


def expansion_interval(rep, group, R, basis, n_dirs=64, spacing=_REDUCE_EVERY):
    """Smallest interval [a, b] of direction-averaged expansion rates over
    the nonzero vectors of the subspace spanned by the basis columns."""
    basis = _as_basis(rep, basis)
    if n_dirs < 64:
        raise LyapunovError("expansion_interval needs n_dirs >= 64")
    acc = _geodesic_matrices(rep, group, _direction_grid(n_dirs), R, spacing)
    return _rate_range(acc, R, basis, rep.field == "complex")


def _as_basis(rep, basis):
    dtype = np.float64 if rep.field == "real" else np.complex128
    basis = np.asarray(basis, dtype=dtype)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.shape[0] != rep.dim or basis.shape[1] < 1:
        raise LyapunovError(f"basis must be {rep.dim} x m with m >= 1")
    qb, _ = np.linalg.qr(basis)
    return qb


def expectation_functions(rep, group, basis, n, n_paths, step, rng):
    """Endpoints [m_n, M_n] of the expected log-growth rate at integer
    horizon n, extremized over unit vectors of the subspace.

    A single path ensemble is shared by every direction, so a 1-dimensional
    subspace gives m_n = M_n exactly.  `step` is validated but not read:
    the walk jumps exactly.
    """
    if not (n >= 1 and float(n).is_integer()):
        raise LyapunovError(f"expectation horizon n must be an integer >= 1, got {n}")
    basis = _as_basis(rep, basis)
    acc = _brownian_matrices(rep, group, float(n), n_paths, step, rng)
    return _rate_range(acc, n, basis, rep.field == "complex")


# ------------------------------------------------------ conversion check


def check_exp_conversion(rep, group, u, eta, t, n_paths, step, rng) -> CheckReport:
    """Expected log growth from eta with the converted direction, against
    the diffused specialization minus its value at eta; two independent
    Monte Carlo pipelines on one time law.  The left side walks the reduced
    chain from eta (_brownian_matrices), the right side draws exact
    endpoints from eta (sample_heat_endpoints) and evaluates the
    specialization there.  `step` is validated but not read."""
    if t < 0.5:
        raise LyapunovError("check_exp_conversion needs t >= 0.5")
    eta_pt = eta if isinstance(eta, DiscPoint) else DiscPoint.from_complex(complex(eta))
    spec = specialize(rep, u, group)

    # the walk from eta records the crossings delta out of eta's tile w, so
    # M_p = rho(delta) while A(eta -> z) = rho(w) rho(delta) rho(w)^-1; with
    # v = [rho(w) u], log |A v| / |v| = log |rho(w) M_p u| - log |rho(w) u|
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng.child(101), start=eta_pt.z)
    w = cocycle_of_word(rep, locate(eta_pt, group)[1])
    acc.m = w @ acc.m
    lhs_vals = acc.log_vector_growth(spec.direction)
    lhs, lhs_se = _mean_se(lhs_vals - math.log(np.linalg.norm(w @ spec.direction)))

    rho, psi = sample_heat_endpoints(n_paths, t, rng.child(202).generator(),
                                     start=_polar_coordinates(eta_pt))
    zs = np.tanh(0.5 * rho[-1]) * np.exp(1j * psi[-1])
    if np.max(np.abs(zs)) >= 1.0 - 1e-15:
        raise LyapunovError("an endpoint of the conversion check left the representable "
                            "disc; use a shorter horizon")
    rhs, rhs_se = _mean_se(spec.values(zs) - spec(eta_pt))

    return CheckReport.compare(
        f"exp_conversion(t={t})", lhs, lhs_se, rhs, rhs_se,
        {"eta": (eta_pt.re, eta_pt.im), "n_paths": n_paths},
    )


# ------------------------------------------------------------ diagnostics


def shadowing_report(n_paths, t_list, rng) -> ShadowingReport:
    """Distance between Brownian paths and their limiting geodesic rays.

    The paths are sampled exactly at the times in t_list, one jump per gap
    (sample_heat_endpoints).  The landing direction is approximated by the
    angular coordinate at the final sampled time; statistics are normalized
    by t^(1/2) (log t)^1.5 and the check passes when the 95th percentile
    shows no growth trend (fitted log-log slope <= 0.1)."""
    t_list = sorted(t_list)
    if t_list[-1] < 20.0:
        raise LyapunovError("shadowing needs max(t_list) >= 20")
    rho, psi = sample_heat_endpoints(n_paths, t_list[-1], _ensemble_generator(rng), checkpoints=t_list)

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

    fit_ts = [t for t in t_list if t >= 10.0]
    if len(fit_ts) < 2:
        raise LyapunovError("shadowing slope fit needs at least two horizons >= 10")
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
        raise LyapunovError("direction check needs t >= 40 (direction nearly frozen)")
    if n_bins < 1:
        raise LyapunovError("need n_bins >= 1")
    if n_paths < n_bins:
        raise LyapunovError(f"the direction check needs n_paths >= n_bins = {n_bins}, got "
                            f"{n_paths}: with fewer, a bin expects under one count, below "
                            f"Cochran's minimum for the chi-square approximation")
    _, psi = _cadence_chain(_resolve_rng(rng), n_paths, t)
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
