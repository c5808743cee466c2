"""Lyapunov-spectrum estimators over the genus-2 surface.

Three independent routes to the same spectrum:

* Brownian: grow the cocycle along Brownian paths and average
  log-norm rates (the operator-norm rate and the full QR-deflation
  spectrum).
* Geodesic: evaluate expansion rates along unit-speed geodesic rays with
  uniformly distributed directions; `expansion_interval` extremizes their
  mean over the directions of a subspace.
* Diffusion: Benettin's QR deflation along Brownian paths at an integer
  horizon, on an ensemble of its own (`hyplyap run` keys the stream by
  route); `expectation_functions` extremizes the expected log growth over
  the directions of a subspace at such a horizon.

Plus the conversion check, `check_exp_conversion`.  The diagnostics that
justify swapping the routes (radial drift, geodesic shadowing, uniformity
of limiting directions) are in `validate`; drift and uniformity chain the
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
gaps and ray steps alike; the interval routes read log |M v| - log |v| off
them in `_rate_range`, and one adaptive random search from a fixed sample
finds its ends (`_optimize_rate`).  One loop, `_fold`, runs every walk into
its accumulator and renormalizes it, by a QR or by a spill, at its cadence
and after the last step.

The disc is simply connected, so a lifted path's cocycle value depends
only on its endpoint tile, and the matrix routes need each walker only at
the reduction cadence, _JUMP_GAP on a Brownian walk.  The one Brownian
walker, `_brownian_walk`, takes ceil(t / _JUMP_GAP) equal gaps; in each
it moves every walker once by an exact heat-kernel jump, exact at any
gap, and reduces every walker once.  So the gap changes only cost and
rounding, not the law of the products, and Benettin's per-gap QR logs
telescope to those of one QR of the whole product.  The jumps come a
block of gaps at a time (`diffusion._heat_jump_blocks`),
`diffusion._disc_jump` forms the disc jumps of a whole block in one pass,
and the Mobius move `diffusion._disc_step` applies them gap by gap.
There is no step, no guard and no partial reduction.  Every Brownian
estimator, the conversion check's left side included, walks through
`_brownian_ensemble` (the whole-product readouts through
`_brownian_matrices`), which still validates a `step` it does not read:
the estimators keep `step` (and Benettin `reorth_every`) in their
signatures because the benchmark's tracer and layer timings pass them.
`_cadence_chain` runs the same jumps, one per _JUMP_GAP, in the polar
chart, without reduction, for the drift and uniformity checks.  The ray
tracker `_ray_walk` moves each ray exactly (`_ray_step`), one step per
_REDUCE_EVERY of arc length, and reduces after every step; rays keep
this shorter cadence, as past R ~ 37 a float64 ray's grid mean moves with
the step.  `_geodesic_matrices` folds its letters into products over the
direction grid `_direction_grid`, and `validate._ray_lift_error` lifts
its rays back through the deck maps that `surface._DeckMaps` composes, in
one array pass per step.  Each estimator walks one ensemble on
`rng.child(0)`.
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
    pairwise_sum,
    sample_heat_endpoints,
)
from .hypgeo import DiscPoint
from .surface import _reduce_ensemble, locate

__all__ = [
    "LyapunovError",
    "SpectrumReport",
    "brownian_norm_rate",
    "benettin_spectrum",
    "geodesic_norm_rates",
    "geodesic_spectrum",
    "diffusion_spectrum",
    "expansion_interval",
    "expectation_functions",
    "check_exp_conversion",
]

CLUSTER_GAP = 0.02


class LyapunovError(RuntimeError):
    """Estimator failure (degenerate frame, bad parameters)."""


# ------------------------------------------------------- ensemble engine

# the rays' reduction cadence: a ray takes one exact step per 0.5 of arc
# length; any cadence gives the same product
_REDUCE_EVERY = 0.5
# the Brownian reduction cadence: a walk of length t takes ceil(t / 1.0)
# equal gaps, one exact jump, one full reduction and (on the spectrum
# routes) one QR each; any gap gives the same law of products
_JUMP_GAP = 1.0
# the whole-product readouts spill into their log scale every 8 steps of a
# walk, Brownian gaps and ray steps alike: 8 units of time at _JUMP_GAP,
# 4 of arc length at _REDUCE_EVERY.  A product outgrowing the 1e100
# threshold by 1e208 (e^479) in that span would need an exponent past 60
# on a Brownian walk, past 120 on a ray
_RESCALE_STEPS = 8
# the geodesic spectrum's QR cadence: rays never cross back, so rounding
# grows with the net displacement.  On Sym^2 of the uniformizing
# representation at R = 60 the worst per-ray |log det| error (truth 0) is
# 7.3e-10 at a QR every 8 steps and 8.5e-12 at every step, which costs the
# route 29%.  (Brownian walkers cross a side and back: at t = 60 over 400
# paths of RngStream(0), (1) and (2), 7.6 to 10.5 at a QR every 8 gaps of
# _JUMP_GAP and 5.0e-9 to 1.2e-8 at every gap, so they take one per gap.)
_RAY_REORTH_STEPS = 8


def _ensemble_generator(rng):
    """The generator of an estimator's single ensemble: rng.child(0)."""
    if not isinstance(rng, RngStream):
        raise LyapunovError("pass an RngStream so the ensemble's stream is reproducible")
    return rng.child(0).generator()


def _walk_steps(t, gap, walk, unit="jumps"):
    """ceil(t / gap), the steps a walk of length t takes.  A walk longer
    than MAX_JUMP_COUNT steps of min(gap, _REDUCE_EVERY) (t > 5000 for a
    Brownian walk and for rays at _REDUCE_EVERY), or a non-finite t, is a
    mistyped horizon and is refused before the walk starts."""
    t_max = MAX_JUMP_COUNT * min(gap, _REDUCE_EVERY)
    if not t <= t_max:
        raise LyapunovError(f"{walk} at most {t_max / gap:,.0f} {unit} of {gap:g}: its length "
                            f"must be finite and at most {t_max:g}, got {t}")
    return math.ceil(t / gap)


def _brownian_walk(data, acc, gen, n, t, start=0j):
    """Walk n Brownian paths from `start` for time t, folding their deck
    letters into acc; yields the reduced positions z after each gap.

    The walk takes k = ceil(t / _JUMP_GAP) equal gaps of t / k (an integer
    t takes t gaps of 1).  Each gap moves every walker once, by an exact
    heat-kernel jump, and then reduces every walker into the octagon.  The
    jumps are drawn a block of gaps at a time (diffusion._heat_jump_blocks)
    and turned into disc jumps a block at a time by _disc_jump; both are
    elementwise, so every gap's jump is bit for bit the one a single gap's
    draw would give.  A gap below diffusion's _GAP_MIN, the shortest time
    its radial table covers, is refused; as t / k >= min(t, 1/2), that is a
    t below _GAP_MIN.  So is a t past 5000 (_walk_steps)."""
    if not (math.isfinite(t) and t >= _GAP_MIN):
        raise LyapunovError(f"a Brownian walk needs finite t >= {_GAP_MIN}, got {t}")
    k = _walk_steps(t, _JUMP_GAP, "a Brownian walk takes")
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
    the matrix routes walk them: k = ceil(t / _JUMP_GAP) chained exact
    jumps of t / k, applied in the polar chart (diffusion._polar_walk).  A
    t below _GAP_MIN is refused, as is a t past 5000 (_walk_steps)."""
    if not t >= _GAP_MIN:
        raise LyapunovError(f"a cadence chain needs t >= {_GAP_MIN}, got {t}")
    _walk_steps(t, _JUMP_GAP, "a cadence chain takes")
    rho, psi = _polar_walk(n, t, _JUMP_GAP, gen, (0.0, 0.0), None)
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


# ----------------------------------------------------------- domain types


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

    def rows(self):
        """Per-block rows for CSV emission."""
        out = []
        for i, (chi, mult, ci) in enumerate(
            zip(self.exponents, self.multiplicities, self.ci_halfwidths), start=1
        ):
            out.append({"index": i, "chi": chi, "multiplicity": mult, "ci_halfwidth": ci})
        return out


# -------------------------------------------------------- Brownian rates


def brownian_norm_rate(rep, group, t, n_paths, step, rng):
    """Mean operator-norm growth rate (1/t) log |A(omega,t)| over Brownian
    paths from the origin; returns (mean, std_error).  `step` is validated
    but not read: the walk jumps exactly."""
    if t < 1.0:
        raise LyapunovError("brownian_norm_rate needs t >= 1")
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng)
    return _mean_se(acc.log_operator_norm() / t)


# -------------------------------------------------------------- Benettin


def benettin_spectrum(rep, group, t_max, step, reorth_every, n_paths, rng) -> SpectrumReport:
    """Full spectrum by QR deflation along Brownian paths: _deflation_spectrum
    of the Brownian walk to t_max, with one QR per gap of the walk (one per
    _JUMP_GAP time units).  A single path is refused: its exponents
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
    per gap; the provenance gains the walk's gap and the ensemble's size
    and stream."""
    if n_paths < 2:
        raise LyapunovError(f"an ensemble spectrum needs n_paths >= 2, got {n_paths}")
    acc, walk = _brownian_ensemble(rep, group, t, n_paths, step, rng)
    provenance.update(jump_gap=_JUMP_GAP, n_paths=n_paths, master_seed=rng.master_seed,
                      stream_index=rng.stream_index)
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


def _embed(vs_real, basis, complex_field):
    """Real coordinates, a row per vector, -> the vectors of the span of the
    basis columns, a column each."""
    m = basis.shape[1]
    coef = vs_real[:, :m] + 1j * vs_real[:, m:] if complex_field else vs_real
    return basis @ coef.T


# the interval search: _N_STARTS searches per end from the best points of a
# fixed Gaussian sample of _N_VECTORS, each _SEARCH_ROUNDS rounds of
# _SEARCH_TRIES perturbations, the first at radius _SEARCH_RADIUS
_N_VECTORS = 64
_N_STARTS = 8
_SEARCH_ROUNDS = 80
_SEARCH_TRIES = 2
_SEARCH_RADIUS = 0.5


def _optimize_rate(objective, m_real):
    """Min and max of a scale-invariant function on R^m_real minus 0, by
    adaptive step-size random search (Schumer & Steiglitz 1968): each round
    a search keeps the best of its incumbent and Gaussian perturbations of
    it, and doubles its radius if that improved, else halves it.  All
    searches share one objective call per round and a generator of their
    own, so every call on one objective returns the same pair."""
    gen = np.random.default_rng(0)
    vs = gen.standard_normal((_N_VECTORS, m_real))
    vals = objective(vs)
    order = np.argsort(vals)
    # the first _N_STARTS searches minimize the function, the rest its negative
    pick = np.concatenate([order[:_N_STARTS], order[::-1][:_N_STARTS]])
    sign = np.repeat([1.0, -1.0], _N_STARTS)
    v, best = vs[pick], sign * vals[pick]
    radius = np.full(sign.size, _SEARCH_RADIUS)
    each = np.arange(sign.size)
    for _ in range(_SEARCH_ROUNDS):
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cand = v[:, None] + radius[:, None, None] * gen.standard_normal(
            (sign.size, _SEARCH_TRIES, m_real))
        f = sign[:, None] * objective(cand.reshape(-1, m_real)).reshape(sign.size, -1)
        j = np.argmin(f, axis=1)
        up = f[each, j] < best
        v[up], best[up] = cand[each, j][up], f[each, j][up]
        radius *= np.where(up, 2.0, 0.5)
    return float(best[:_N_STARTS].min()), float(-best[_N_STARTS:].min())


def _rate_range(acc, horizon, basis, complex_field):
    """(min, max) over the nonzero vectors v in the span of the basis
    columns of the mean rate (log |M_p v| - log |v|) / horizon over the
    products M_p in acc.  A line has one rate, read at its basis vector."""
    p, d, _ = acc.m.shape
    # row k of every product, stacked by k: one matmul gives each (M_p v)_k
    rows = np.ascontiguousarray(acc.m.transpose(1, 0, 2)).reshape(d * p, d)
    log_scale = acc.log_scale.mean()

    def objective(vs_real):
        vecs = _embed(vs_real, basis, complex_field)
        img = (rows @ vecs).reshape(d, p, -1)
        # |M_p v|^2 / |v|^2, each summed over the entry planes in one order
        ratio = (img * img.conj()).real.sum(axis=0) / (vecs * vecs.conj()).real.sum(axis=0)
        return (0.5 * np.log(ratio).mean(axis=0) + log_scale) / horizon

    m_real = basis.shape[1] * (2 if complex_field else 1)
    if basis.shape[1] == 1:
        rate = float(objective(np.eye(1, m_real))[0])
        return rate, rate
    return _optimize_rate(objective, m_real)


def expansion_interval(rep, group, R, basis, n_dirs=64, spacing=_REDUCE_EVERY):
    """Smallest interval [a, b] of direction-averaged expansion rates over
    the nonzero vectors of the subspace spanned by the basis columns.

    A line has one rate, so a == b.  On a subspace of dimension >= 2 the
    rate dips where v meets one ray's contracting direction, by up to about
    (chi_1 - chi_d) / n_dirs over a width of about e^(-R (chi_1 - chi_d)),
    so a depends on how close the search comes to a dip: on the uniformizing
    representation's K^2 (R = 60, 256 rays) a 181 x 180 grid over CP^1
    reads a = 0.48949, and the search 0.48866."""
    basis = _as_basis(rep, basis)
    if n_dirs < 64:
        raise LyapunovError("expansion_interval needs n_dirs >= 64")
    acc = _geodesic_matrices(rep, group, _direction_grid(n_dirs), R, spacing)
    return _rate_range(acc, R, basis, rep.field == "complex")


def _as_basis(rep, basis):
    """An orthonormal basis of the span of finite columns, independent to
    1e-12: the smallest |diag R| of their QR against the largest."""
    dtype = np.float64 if rep.field == "real" else np.complex128
    basis = np.asarray(basis, dtype=dtype)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.shape[0] != rep.dim or not 1 <= basis.shape[1] <= rep.dim:
        raise LyapunovError(f"basis must be {rep.dim} x m with 1 <= m <= {rep.dim}")
    if not np.all(np.isfinite(basis)):
        raise LyapunovError("basis must be finite")
    qb, r = np.linalg.qr(basis)
    diag = np.abs(np.diagonal(r))
    if not diag.min() > 1e-12 * diag.max():
        raise LyapunovError("basis columns must be linearly independent")
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
