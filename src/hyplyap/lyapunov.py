"""Lyapunov-spectrum estimators over the genus-2 surface.

Three independent routes to the same spectrum:

* Brownian: grow the cocycle along tracked Brownian paths and average
  log-norm rates (single-vector, operator-norm, and full QR-deflation
  variants).
* Geodesic: evaluate expansion rates along unit-speed geodesic rays with
  uniformly distributed directions.
* Diffusion/expectation: extremize expected log growth over directions in
  a subspace at integer horizons.

Plus the probabilistic diagnostics that justify swapping the routes:
radial drift, geodesic shadowing, and uniformity of limiting directions.

Every route runs on one vectorized engine in two layers: the geometry
layer `surface._reduce_ensemble` emits deck letters and the algebra layer
`cocycle._MatrixAccumulator` consumes them; this module walks ensembles on
top of both.  `_reduce_ensemble` is the only domain-reduction kernel: each
round it pulls every walker that violates a side back across its smallest
violated side in one Mobius update (walkers inside a skip radius are never
tested, and after the first round only the walkers that moved are) and
reports the round's (side, walker) arrays once.  `_MatrixAccumulator` is
the only cocycle accumulator: it folds a round in with one gathered matmul
against the eight side images stacked as (8, d, d).  A path's matrix takes
its letters on the right (crossing order); Benettin's QR deflation reads
the accumulator transposed, whose left products have the same
singular-value growth and make the limiting frame estimate the flag at the
starting fiber.  The SVD routes summarize their products in
`_svd_spectrum`, the interval routes extremize over a subspace in
`_rate_range`.

Reduction is lazy: the disc is simply connected, so a lifted path's
cocycle value depends only on its endpoint tile.  The one Brownian walker,
`_brownian_walk` (stepping with `diffusion._disc_step`), and the ray
tracker `_geodesic_matrices` reduce every walker only every _REDUCE_EVERY
time units and at the last step, else only those past _GUARD_R.  Each
estimator walks one ensemble on `rng.child(0)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import _MatrixAccumulator, cocycle_of_word, specialize
from .diffusion import (
    CheckReport,
    RngStream,
    _check_step_params,
    _disc_step,
    _disc_walk_endpoints,
    _increments,
    _mean_se,
    _time_grid,
    pairwise_sum,
    sample_polar_endpoints,
    polar_separation,
)
from .hypgeo import DiscPoint
from .surface import _GroupData, _reduce_ensemble, locate

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

_GEODESIC_SPACING = 0.05
CLUSTER_GAP = 0.02


class LyapunovError(RuntimeError):
    """Estimator failure (degenerate frame, bad parameters)."""


# ------------------------------------------------------- ensemble engine

# full reductions every half time (or arc-length) unit: 10 steps at step
# 0.05, Benettin's default reorth_every; any cadence gives the same product
_REDUCE_EVERY = 0.5
# between full reductions, walkers past hyperbolic radius 6 are reduced at
# once: a raw-chart point there carries at most ~200 eps of position error
_GUARD_R = math.tanh(3.0)


def _ensemble_generator(rng):
    """The generator of an estimator's single ensemble: rng.child(0)."""
    if not isinstance(rng, RngStream):
        raise LyapunovError("pass an RngStream so the ensemble's stream is reproducible")
    return rng.child(0).generator()


def _lazy_skip(k, steps, spacing):
    """skip_r for the reduction after step k of steps (1-based): a full
    reduction at every _REDUCE_EVERY and at the last step, else the guard."""
    full = k % max(1, round(_REDUCE_EVERY / spacing)) == 0 or k == steps
    return None if full else _GUARD_R


def _brownian_walk(data, acc, gen, n, t, step, start=0j):
    """Walk n Brownian paths from `start` with lazy reduction, folding their
    deck letters into acc; yields (i, last, z) after step i.  Between full
    reductions acc holds a partial product, completed at the last step."""
    _check_step_params(t, step)
    z = np.full(n, complex(start))
    _reduce_ensemble(data, z)  # initial reduction: not part of the word
    steps = len(_time_grid(t, step)) - 1
    for i, (n1, n2, scale) in enumerate(_increments(gen, n, t, step), start=1):
        z = _disc_step(z, n1, n2, scale)
        _reduce_ensemble(data, z, acc=acc, skip_r=_lazy_skip(i, steps, step))
        yield i, i == steps, z


def _brownian_matrices(rep, group, t, n_paths, step, rng, start=0j):
    """Cocycle matrices along tracked Brownian paths, one ensemble."""
    data = _GroupData(group)
    acc = _MatrixAccumulator(rep, data, n_paths)
    for i, _, _ in _brownian_walk(data, acc, _ensemble_generator(rng), n_paths, t, step, start):
        if i % 64 == 0:
            acc.rescale()
    acc.rescale()
    return acc


def _geodesic_matrices(rep, group, thetas, R, spacing):
    """Cocycle matrices along the rays gamma_{0,theta}, tracked intrinsically
    with direction transport and reduced lazily, as in _brownian_walk."""
    if not (math.isfinite(spacing) and 0.0 < spacing <= _GEODESIC_SPACING + 1e-12):
        raise LyapunovError(f"geodesic tracking needs 0 < spacing <= {_GEODESIC_SPACING}")
    if not (math.isfinite(R) and R > 0.0):
        raise LyapunovError(f"geodesic tracking needs a finite R > 0, got {R}")
    data = _GroupData(group)
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.size
    acc = _MatrixAccumulator(rep, data, n)
    w = np.zeros(n, complex)
    alpha = 2.0 * np.pi * thetas
    steps = int(math.ceil(R / spacing))
    done = 0.0
    for k in range(1, steps + 1):
        h = min(spacing, R - done)
        done += h
        xi = math.tanh(0.5 * h) * np.exp(1j * alpha)
        den = 1.0 + np.conj(w) * xi
        w = (xi + w) / den
        alpha = alpha - 2.0 * np.arctan2(den.imag, den.real)
        _reduce_ensemble(data, w, alpha, acc, skip_r=_lazy_skip(k, steps, spacing))
        if k % 64 == 0:
            acc.rescale()
    acc.rescale()
    return acc


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

    def top(self) -> tuple:
        return self.exponents[0], self.ci_halfwidths[0]

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
    drift_quantiles: dict        # q -> tuple over t of normalized |dist - t|
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
    over tracked Brownian paths from the origin; returns (mean, std_error)."""
    if t < 1.0:
        raise LyapunovError("brownian_rate needs t >= 1")
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng)
    return _mean_se(acc.log_vector_growth(v) / t)


def brownian_norm_rate(rep, group, t, n_paths, step, rng):
    """Mean operator-norm growth rate (1/t) log |A(omega,t)|."""
    if t < 1.0:
        raise LyapunovError("brownian_norm_rate needs t >= 1")
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng)
    return _mean_se(acc.log_operator_norm() / t)


# -------------------------------------------------------------- Benettin


def benettin_spectrum(rep, group, t_max, step, reorth_every, n_paths, rng) -> SpectrumReport:
    """Full spectrum by QR deflation along tracked Brownian paths.

    Letters arrive in crossing order, i.e. as right factors of each path's
    product M; its transpose M^T takes them as left factors with identical
    singular-value growth, so the frame is M^T, re-orthonormalized by QR
    every `reorth_every` steps, and the accumulated log diagonals are
    averaged across paths.  The QR points need not be
    reduction points: every partial product is a factor of the final one,
    whose letters are all folded in by the last step.

    Exponents whose estimates differ by less than max(0.02, 3 combined se)
    merge into one block: strict spectral gaps are not resolvable at finite
    horizon without a threshold.
    """
    if reorth_every < 1 or reorth_every * step > 1.0 + 1e-12:
        raise LyapunovError("need reorth_every >= 1 with reorth_every * step <= 1")
    data = _GroupData(group)
    gen = _ensemble_generator(rng)
    acc = _MatrixAccumulator(rep, data, n_paths)
    logr = np.zeros((n_paths, rep.dim))
    for i, last, _ in _brownian_walk(data, acc, gen, n_paths, t_max, step):
        if i % reorth_every == 0 or last:
            q, r = np.linalg.qr(np.swapaxes(acc.m, 1, 2))
            diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
            if np.any(diag < 1e-280):
                raise LyapunovError("frame degeneracy: QR diagonal underflow during deflation")
            signs = np.sign(np.diagonal(r.real, axis1=1, axis2=2))
            signs = np.where(signs == 0.0, 1.0, signs)
            acc.m = np.swapaxes(q * signs[:, None, :], 1, 2)
            logr += np.log(diag)
    # sort per path: for products without generic alignment (commuting
    # images) the QR diagonal order is path-dependent, and the ensemble
    # average must estimate the sorted spectrum of A(omega, t)
    lams = np.sort(logr / t_max, axis=1)[:, ::-1]
    return _spectrum_from_samples(
        lams,
        acc.m[0].T.copy(),
        "brownian",
        {
            "t_max": t_max,
            "step": step,
            "reorth_every": reorth_every,
            "n_paths": n_paths,
            "master_seed": rng.master_seed,
            "stream_index": rng.stream_index,
        },
    )


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


def geodesic_rate(rep, group, theta, R, v, spacing=_GEODESIC_SPACING) -> ExpansionSample:
    """Deterministic expansion rate (1/R) log(|A(gamma_theta, R) v| / |v|).

    Deterministic for a fixed operation order, but past R ~ 37 a float64
    ray is a shadowing pseudo-orbit, not the ray of theta: nudging every
    theta of the 256-direction grid by 1e-15 changes 0, 2 and 181 of its
    diag(2, 1/2) rates at R = 20, 30 and 40.
    """
    acc = _geodesic_matrices(rep, group, [theta], R, spacing)
    val = float(acc.log_vector_growth(v)[0]) / R
    return ExpansionSample(theta=float(theta) % 1.0, R=R, value=val, vector=tuple(np.ravel(v)))


def geodesic_norm_rate(rep, group, theta, R, spacing=_GEODESIC_SPACING) -> ExpansionSample:
    """Deterministic maximal expansion rate (1/R) log |A(gamma_theta, R)|.

    Past R ~ 37 the float64 ray is a shadowing pseudo-orbit; see
    geodesic_rate.
    """
    acc = _geodesic_matrices(rep, group, [theta], R, spacing)
    val = float(acc.log_operator_norm()[0]) / R
    return ExpansionSample(theta=float(theta) % 1.0, R=R, value=val)


def geodesic_norm_rates(rep, group, R, n_dirs, spacing=_GEODESIC_SPACING):
    """Operator-norm rates over the uniform direction grid; the grid average
    estimates the top exponent by the geodesic route."""
    if n_dirs < 1:
        raise LyapunovError("geodesic_norm_rates needs n_dirs >= 1")
    thetas = (np.arange(n_dirs) + 0.5) / n_dirs
    acc = _geodesic_matrices(rep, group, thetas, R, spacing)
    return thetas, acc.log_operator_norm() / R


def _spectrum_from_samples(lams, basis, method, provenance) -> SpectrumReport:
    """Build a report from per-sample sorted log singular values / t."""
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


def _svd_spectrum(acc, horizon, method, provenance) -> SpectrumReport:
    """Report of the products in acc: sorted log singular values / horizon
    per product, the first product's right singular vectors as the basis."""
    s = np.linalg.svd(acc.m, compute_uv=False)
    if np.any(s == 0.0):
        # the SVD of a whole product loses singular values below s_1 * eps
        raise LyapunovError(
            "non-finite spectrum estimate: a singular value of the product "
            "underflowed to 0"
        )
    lams = (np.log(s) + acc.log_scale[:, None]) / horizon
    _, _, vh = np.linalg.svd(acc.m[0])
    return _spectrum_from_samples(lams, vh.conj().T, method, provenance)


def geodesic_spectrum(rep, group, R, n_dirs, spacing=_GEODESIC_SPACING) -> SpectrumReport:
    """Full spectrum by the geodesic route: sorted log singular values of
    the ray cocycles, averaged over the uniform direction grid."""
    if n_dirs < 8:
        raise LyapunovError("geodesic_spectrum needs n_dirs >= 8")
    thetas = (np.arange(n_dirs) + 0.5) / n_dirs
    acc = _geodesic_matrices(rep, group, thetas, R, spacing)
    return _svd_spectrum(acc, R, "geodesic", {"R": R, "n_dirs": n_dirs, "spacing": spacing})


def diffusion_spectrum(rep, group, n, n_paths, step, rng) -> SpectrumReport:
    """Full spectrum by the expectation route: expected sorted log singular
    values of the cocycle at an integer horizon (no deflation along the
    path; the whole matrix is decomposed at the end)."""
    if n < 1:
        raise LyapunovError("diffusion_spectrum needs an integer horizon n >= 1")
    acc = _brownian_matrices(rep, group, float(int(n)), n_paths, step, rng)
    return _svd_spectrum(
        acc,
        float(int(n)),
        "diffusion",
        {
            "n": int(n),
            "n_paths": n_paths,
            "step": step,
            "master_seed": rng.master_seed,
            "stream_index": rng.stream_index,
        },
    )


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
    # Halton points pushed through the Gaussian quantile, then normalized
    from scipy.stats import norm, qmc

    h = qmc.Halton(d=m_real, scramble=False).random(n_vectors + 1)[1:]
    g = norm.ppf(np.clip(h, 1e-12, 1.0 - 1e-12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


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


def _optimize_rate(objective, m_real, n_vectors, refine_iters=40):
    """Min and max of a smooth projective function on the unit sphere:
    deterministic grid, then golden-section refinement in the top-scoring
    2-plane coordinates around each incumbent."""
    vs = _sphere_sample(m_real, n_vectors)
    vals = objective(vs)
    lo_i, hi_i = int(np.argmin(vals)), int(np.argmax(vals))
    lo = _refine_extremum(objective, vs, lo_i, minimize=True, iters=refine_iters)
    hi = _refine_extremum(objective, vs, hi_i, minimize=False, iters=refine_iters)
    return lo, hi


def _refine_extremum(objective, vs, idx, minimize, iters):
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
        for _ in range(iters // m + 8):
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


def _rate_range(acc, horizon, basis, complex_field, n_vectors):
    """(min, max) over unit vectors v in the span of the basis columns of
    the mean rate log(|M_p v|) / horizon over the products M_p in acc."""

    def objective(vs_real):
        vecs = _embed(vs_real, basis, complex_field)
        img = np.einsum("pij,nj->pni", acc.m, vecs)
        logs = np.log(np.linalg.norm(img, axis=2)) + acc.log_scale[:, None]
        return logs.mean(axis=0) / horizon

    a, b = _optimize_rate(objective, _real_dim(basis, complex_field), n_vectors)
    return min(a, b), max(a, b)


def expansion_interval(rep, group, R, basis, n_dirs=64, n_vectors=64, spacing=_GEODESIC_SPACING):
    """Smallest interval [a, b] of direction-averaged expansion rates over
    the nonzero vectors of the subspace spanned by the basis columns."""
    basis = _as_basis(rep, basis)
    if n_dirs < 64:
        raise LyapunovError("expansion_interval needs n_dirs >= 64")
    if _real_dim(basis, rep.field == "complex") > 1 and n_vectors < 64:
        raise LyapunovError("expansion_interval needs n_vectors >= 64")
    thetas = (np.arange(n_dirs) + 0.5) / n_dirs
    acc = _geodesic_matrices(rep, group, thetas, R, spacing)
    return _rate_range(acc, R, basis, rep.field == "complex", n_vectors)


def _as_basis(rep, basis):
    dtype = np.float64 if rep.field == "real" else np.complex128
    basis = np.asarray(basis, dtype=dtype)
    if basis.ndim == 1:
        basis = basis[:, None]
    if basis.shape[0] != rep.dim or basis.shape[1] < 1:
        raise LyapunovError(f"basis must be {rep.dim} x m with m >= 1")
    qb, _ = np.linalg.qr(basis)
    return qb


def expectation_functions(
    rep, group, basis, n, n_paths, step, rng, n_vectors=64
):
    """Endpoints [m_n, M_n] of the expected log-growth rate at integer
    horizon n, extremized over unit vectors of the subspace.

    A single path ensemble is shared by every direction, so a 1-dimensional
    subspace gives m_n = M_n exactly.
    """
    if n < 1:
        raise LyapunovError("expectation horizon n must be >= 1")
    basis = _as_basis(rep, basis)
    acc = _brownian_matrices(rep, group, float(n), n_paths, step, rng)
    return _rate_range(acc, n, basis, rep.field == "complex", n_vectors)


# ------------------------------------------------------ conversion check


def check_exp_conversion(rep, group, u, eta, t, n_paths, step, rng) -> CheckReport:
    """Expected log growth from eta with the converted direction, against
    the diffused specialization minus its value at eta; two independent
    Monte Carlo pipelines."""
    if t < 0.5:
        raise LyapunovError("check_exp_conversion needs t >= 0.5")
    eta_pt = eta if isinstance(eta, DiscPoint) else DiscPoint.from_complex(complex(eta))
    spec = specialize(rep, u, group)

    # the walk from eta records the crossings delta out of eta's tile w, so
    # M_p = rho(delta) while A(eta -> z) = rho(w) rho(delta) rho(w)^-1; with
    # v = [rho(w) u], log |A v| / |v| = log |rho(w) M_p u| - log |rho(w) u|
    acc = _brownian_matrices(rep, group, t, n_paths, step, rng.child(101), start=eta_pt.z)
    w = cocycle_of_word(rep, locate(eta_pt, group)[1]).matrix
    acc.m = w @ acc.m
    lhs_vals = acc.log_vector_growth(spec.direction)
    lhs, lhs_se = _mean_se(lhs_vals - math.log(np.linalg.norm(w @ spec.direction)))

    gen = rng.child(202).generator()
    zs = _disc_walk_endpoints(n_paths, t, step, gen, z0=eta_pt.z)
    rhs, rhs_se = _mean_se(spec.values(zs) - spec(eta_pt))

    return CheckReport.compare(
        f"exp_conversion(t={t})", lhs, lhs_se, rhs, rhs_se,
        {"eta": (eta_pt.re, eta_pt.im), "n_paths": n_paths},
    )


# ------------------------------------------------------------ diagnostics


def shadowing_report(n_paths, t_list, step, rng, rho_exponent=1.5) -> ShadowingReport:
    """Distance between Brownian paths and their limiting geodesic rays.

    The landing direction is approximated by the angular coordinate at the
    final sampled time; statistics are normalized by t^(1/2) (log t)^1.5
    and the check passes when the 95th percentile shows no growth trend
    (fitted log-log slope <= 0.1)."""
    t_list = sorted(t_list)
    if t_list[-1] < 20.0:
        raise LyapunovError("shadowing needs max(t_list) >= 20")
    rho, psi = sample_polar_endpoints(
        n_paths, t_list[-1], step, _ensemble_generator(rng), checkpoints=t_list
    )

    psi_final = psi[-1]
    qs = (50, 90, 95)
    shadow_q = {q: [] for q in qs}
    drift_q = {q: [] for q in qs}
    drift_median = []
    for i, t in enumerate(t_list):
        # normalizer degenerates below t ~ e; early entries report raw scale
        norm = max(math.sqrt(t) * math.log(max(t, math.e)) ** rho_exponent, 1e-9)
        d = polar_separation(rho[i], psi[i], np.full(rho.shape[1], float(t)), psi_final)
        radial = np.abs(rho[i] - t)
        for q in qs:
            shadow_q[q].append(float(np.percentile(d, q)) / norm)
            drift_q[q].append(float(np.percentile(radial, q)) / norm)
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
        drift_quantiles={q: tuple(v) for q, v in drift_q.items()},
        slope_shadow_95=slope,
        passed=slope <= 0.1,
    )


def direction_distribution_check(n_paths, t, step, n_bins, rng) -> UniformityReport:
    """Chi-square uniformity of final angular coordinates."""
    from scipy.stats import chi2

    if t < 40.0:
        raise LyapunovError("direction check needs t >= 40 (direction nearly frozen)")
    if n_bins < 1:
        raise LyapunovError("need n_bins >= 1")
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    _, psis = sample_polar_endpoints(n_paths, t, step, gen)
    angles = np.mod(psis[-1], 2.0 * np.pi)
    counts, _ = np.histogram(angles, bins=n_bins, range=(0.0, 2.0 * np.pi))
    expected = n_paths / n_bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    p = float(chi2.sf(stat, df=n_bins - 1)) if n_bins > 1 else 1.0
    return UniformityReport(
        n_bins=n_bins,
        n_paths=n_paths,
        statistic=stat,
        p_value=p,
        passed=p > 0.001,
    )
