"""Representation cocycles over the genus-2 surface.

A representation assigns an invertible matrix to each of the four handle
generators; a path's cocycle value is the ordered product of generator
images along the path's deck word.  The identifier is constant (the local
system is trivialized over the fundamental octagon), so values depend only
on the homotopy class and the homotopy law holds exactly for exact
representations.

A word's product, `cocycle_of_word`, is a plain matrix: the words it
multiplies are a point's reduction word or a specialization's base word, a
handful of letters.  `_MatrixAccumulator` is the only product with a
log-scale spill.  It is the algebra layer of the vectorized ensemble engine:
it folds the deck letters that `surface._reduce_ensemble` emits into one
cocycle product per walker, over paths of any length.
`Specialization.values` runs the two on a whole array of points, and
`Specialization.__call__` on one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .diffusion import _resolve_rng
from .hypgeo import _MAX_ABS, DiscPoint
from .surface import (_OCTAGON_RELATOR, DeckWord, FuchsianGroup, _GroupData, _reduce_ensemble,
                      locate, track)

__all__ = [
    "CocycleError",
    "Representation",
    "Specialization",
    "RegularityReport",
    "cocycle_of_word",
    "diagonal_representation",
    "evaluate",
    "fuchsian_representation",
    "specialize",
    "estimate_regularity",
]

_EXACTNESS_TOL = 1e-8
# _MatrixAccumulator.rescale spills a product whose largest entry passes this
_SPILL_THRESHOLD = 1e100
# separation bins of estimate_regularity's upper envelope, and the exponents
# its fit tries
_REGULARITY_BINS = 12
_REGULARITY_ALPHAS = np.linspace(0.0, 2.0, 81)
# a pair reaches up to twice the radius from 0, and a point past
# 2 atanh(_MAX_ABS) ~ 35.23 from 0 leaves the representable disc
_REGULARITY_MAX_RADIUS = math.atanh(_MAX_ABS)


class CocycleError(ValueError):
    """Invalid representation or cocycle input."""


@dataclass(frozen=True)
class Representation:
    """Images of the four handle generators in GL(d, K)."""

    dim: int
    field: str                     # "real" | "complex"
    images: tuple                  # 4 arrays, rho(g_1)..rho(g_4)
    inverses: tuple = ()
    relator_residual: float = math.nan

    @staticmethod
    def from_matrices(dim: int, field: str, matrices=None, group: Optional[FuchsianGroup] = None):
        """The representation with the given images; with none, every image
        is the identity, formed here, so a dim too large to allocate raises
        MemoryError from this call."""
        if field not in ("real", "complex"):
            raise CocycleError(f"field must be 'real' or 'complex', got {field!r}")
        if matrices is None:
            matrices = (np.eye(dim),) * 4
        dtype = np.float64 if field == "real" else np.complex128
        if len(matrices) != 4:
            raise CocycleError(f"need 4 generator images, got {len(matrices)}")
        images = []
        for k, m in enumerate(matrices, start=1):
            arr = np.asarray(m, dtype=dtype)
            if arr.shape != (dim, dim):
                raise CocycleError(f"image of g{k} has shape {arr.shape}, want ({dim},{dim})")
            if not np.all(np.isfinite(arr)):
                raise CocycleError(f"image of g{k} has non-finite entries")
            cond = np.linalg.cond(arr)
            if not (cond < 1e12):
                raise CocycleError(f"image of g{k} has condition number {cond:.3g} >= 1e12")
            images.append(arr)
        inverses = tuple(np.linalg.inv(m) for m in images)
        residual = _relator_residual(images, inverses, group)
        return Representation(
            dim=dim,
            field=field,
            images=tuple(images),
            inverses=inverses,
            relator_residual=residual,
        )

    def image(self, letter: int) -> np.ndarray:
        """Matrix for a signed letter: +k -> rho(g_k), -k -> rho(g_k)^{-1}."""
        if not 1 <= abs(letter) <= 4:
            raise CocycleError(f"letter {letter} outside 1..4")
        return self.images[letter - 1] if letter > 0 else self.inverses[-letter - 1]

    @property
    def exact(self) -> bool:
        """Whether the relator image is the identity; required for the
        homotopy law, hence for cocycle construction."""
        return self.relator_residual <= _EXACTNESS_TOL

    def require_exact(self):
        if not self.exact:
            raise CocycleError(
                f"representation is projective-only (relator residual "
                f"{self.relator_residual:.3g} > {_EXACTNESS_TOL}); cocycle "
                f"values would depend on the word, not the homotopy class"
            )


def _relator_residual(images, inverses, group: Optional[FuchsianGroup]) -> float:
    """Frobenius distance from the identity of the image of the group's
    relator, or of the octagon's vertex cycle when no group is given."""
    word = group.relator if group is not None else _OCTAGON_RELATOR
    d = images[0].shape[0]
    m = np.eye(d, dtype=images[0].dtype)
    for letter in word.letters:
        m = m @ (images[letter - 1] if letter > 0 else inverses[-letter - 1])
    return float(np.linalg.norm(m - np.eye(d), ord="fro"))


def diagonal_representation(entries) -> Representation:
    """Representation with rho(g_1) = diag(entries) and the other images the
    identity; the workhorse test cocycle."""
    d = len(entries)
    g1 = np.diag(np.asarray(entries, dtype=float))
    eye = np.eye(d)
    return Representation.from_matrices(d, "real", [g1, eye, eye, eye])


def fuchsian_representation(group: FuchsianGroup) -> Representation:
    """The uniformizing representation g_k -> [[a, b], [conj b, conj a]]:
    |rho(gamma)| = exp(d(0, gamma 0) / 2) and the radial drift is 1, so its
    spectrum is exactly +-1/2, the nonzero-spectrum oracle."""
    mats = [[[g.a, g.b], [g.b.conjugate(), g.a.conjugate()]] for g in group.generators[:4]]
    return Representation.from_matrices(2, "complex", mats, group)


def cocycle_of_word(rep: Representation, word: DeckWord) -> np.ndarray:
    """Ordered product of generator images along the word; empty -> identity.

    No log-scale spill: a product that leaves the float range raises, since
    long products belong to the ensemble accumulator."""
    rep.require_exact()
    m = np.eye(rep.dim, dtype=np.float64 if rep.field == "real" else np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for letter in word.letters:
            m = m @ rep.image(letter)
    if not np.all(np.isfinite(m)):
        raise CocycleError(
            f"product of a {len(word)}-letter word is not finite; long products "
            f"belong to the ensemble accumulator (_MatrixAccumulator)"
        )
    return m


class _MatrixAccumulator:
    """Per-path cocycle products M_p with log-scale spill, the only product
    that spills: the true product is m * exp(log_scale), and `rescale`
    moves any walker's matrix past _SPILL_THRESHOLD into log_scale at points
    the caller chooses.

    Letters arrive in crossing order, i.e. as right factors of M_p.  A
    letter whose image is exactly the identity is not folded: a product
    times I is that product bit for bit, up to the sign of a zero entry
    (BLAS may form -0.0 * 1 + x * 0 as +0.0, a skip keeps -0.0).  `folded`
    marks the sides whose images are not the identity, and is None when
    none is, so such a representation folds every letter.
    """

    def __init__(self, rep: Representation, data: _GroupData, n: int):
        rep.require_exact()
        self.imgs = np.stack([rep.image(letter) for letter in data.letters])
        eye = np.eye(rep.dim, dtype=self.imgs.dtype)
        self.m = np.broadcast_to(eye, (n, rep.dim, rep.dim)).copy()
        self.log_scale = np.zeros(n)
        identity = (self.imgs == eye).all(axis=(1, 2))
        self.folded = ~identity if identity.any() else None

    def apply(self, first, idx):
        """Fold one reduction round: walker idx[k] crossed side first[k]."""
        if self.folded is not None:
            keep = self.folded[first]
            first, idx = first[keep], idx[keep]
        self.m[idx] = self.m.take(idx, 0) @ self.imgs.take(first, 0)

    def rescale(self):
        big = np.max(np.abs(self.m), axis=(1, 2))
        mask = big > _SPILL_THRESHOLD
        if mask.any():
            self.m[mask] /= big[mask, None, None]
            self.log_scale[mask] += np.log(big[mask])

    def log_vector_growth(self, v) -> np.ndarray:
        v = np.asarray(v)
        nv = np.linalg.norm(v)
        img = self.m @ (v / nv)
        return np.log(np.linalg.norm(img, axis=1)) + self.log_scale

    def log_operator_norm(self) -> np.ndarray:
        s = np.linalg.svd(self.m, compute_uv=False)
        return np.log(s[:, 0]) + self.log_scale


def evaluate(rep: Representation, path, group: FuchsianGroup) -> np.ndarray:
    """Cocycle matrix of a discretized leafwise path."""
    return cocycle_of_word(rep, track(path, group))


@dataclass(frozen=True)
class Specialization:
    """Scalar field recording the log-growth of the cocycle applied to a
    fixed projective direction, as a function of the endpoint lift.

    f(zeta) = log |A(path base -> zeta) u| / |u|, which vanishes at the base
    and is independent of the representative chosen for u.
    """

    rep: Representation
    group: FuchsianGroup
    direction: np.ndarray          # unit representative of u
    base: DiscPoint = DiscPoint(0.0, 0.0)
    base_word: DeckWord = field(default_factory=DeckWord)

    def __call__(self, zeta) -> float:
        return float(self.values([zeta.z if isinstance(zeta, DiscPoint) else zeta])[0])

    def values(self, zs) -> np.ndarray:
        """f at every point of a complex array in one pass of the ensemble
        engine."""
        z = np.array(zs, dtype=complex)  # a copy: the reduction works in place
        acc = _MatrixAccumulator(self.rep, self.group._layout, z.size)
        _reduce_ensemble(self.group._layout, z, acc=acc)
        base_inv = cocycle_of_word(self.rep, self.base_word.inverse())
        acc.m = acc.m @ base_inv
        return acc.log_vector_growth(self.direction)


def specialize(rep: Representation, u, group: FuchsianGroup, base=DiscPoint(0.0, 0.0)) -> Specialization:
    rep.require_exact()
    u = np.asarray(u, dtype=np.float64 if rep.field == "real" else np.complex128)
    nu = np.linalg.norm(u)
    if nu == 0.0 or not np.isfinite(nu):
        raise CocycleError("projective direction must be nonzero and finite")
    base_pt = base if isinstance(base, DiscPoint) else DiscPoint.from_complex(complex(base))
    _, base_word = locate(base_pt, group)
    return Specialization(
        rep=rep, group=group, direction=u / nu, base=base_pt, base_word=base_word
    )


@dataclass(frozen=True)
class RegularityReport:
    alpha_fit: float
    c_fit: float
    lipschitz_c: float
    n_pairs: int
    radius: float
    bin_centers: tuple = ()
    bin_envelope: tuple = ()


def _fit_envelope(fit_x, fit_y):
    """(alpha, c) of estimate_regularity's fit of fit_y on the columns
    (fit_x^alpha, 1), all of _REGULARITY_ALPHAS at once in closed form.
    Where fit_x^alpha is flat (alpha = 0, or one bin) the columns are
    parallel and, as in lstsq, the minimum-norm solution is taken,
    (c, c0) = mean(y) (x, 1) / (x^2 + 1).  argmin keeps the first of equal
    residuals, as a strict < scan does."""
    x = fit_x ** _REGULARITY_ALPHAS[:, None]
    x_mean = x.mean(axis=1)
    y_mean = fit_y.mean()
    dx = x - x_mean[:, None]
    sxx = np.sum(dx * dx, axis=1)
    flat = sxx == 0.0
    slope = dx @ (fit_y - y_mean) / np.where(flat, 1.0, sxx)
    c0 = y_mean - slope * x_mean
    slope[flat] = y_mean * x_mean[flat] / (x_mean[flat] ** 2 + 1.0)
    c0[flat] = y_mean / (x_mean[flat] ** 2 + 1.0)
    c = np.maximum(slope, 0.0)
    resid = np.sum((x * c[:, None] + c0[:, None] - fit_y) ** 2, axis=1)
    best = int(np.argmin(resid))
    return float(_REGULARITY_ALPHAS[best]), float(c[best])


def estimate_regularity(
    spec,
    n_pairs: int,
    radius: float,
    rng,
) -> RegularityReport:
    """Probe the large-separation growth of |f(y) - f(z)|.

    Pairs are sampled with controlled separation: y area-uniform in the ball
    of the given radius, z at distance drawn uniformly in (0, radius] along
    a uniform direction from y.  The upper envelope is the largest |f(y) -
    f(z)| in each of _REGULARITY_BINS separation bins (empty bins are
    skipped), fitted against c * dist^alpha + c0 by least squares at each
    alpha of _REGULARITY_ALPHAS; the smallest residual wins, the first on a
    tie.  At alpha = 0 the two columns coincide and the fit takes the
    minimum-norm split c = c0 = mean / 2; a negative c is clipped to 0
    with c0 kept, and the residual is that of the clipped pair.  The
    Lipschitz constant is the largest ratio |f(y) - f(z)| / dist at
    separations >= 1 (the growth classes concern large distances, so the
    small-scale jumps of locally constant fields are ignored).
    """
    if n_pairs < 100:
        raise CocycleError("estimate_regularity needs n_pairs >= 100")
    if not (math.isfinite(radius) and radius > 0.0):
        raise CocycleError(f"estimate_regularity needs a finite radius > 0, got {radius}")
    if radius >= _REGULARITY_MAX_RADIUS:
        raise CocycleError(f"estimate_regularity needs radius < {_REGULARITY_MAX_RADIUS:.2f}, "
                           "or its pairs leave the representable disc")
    gen = _resolve_rng(rng)
    # per pair: radius and angle of y, then separation and direction of z
    draws = gen.random((n_pairs, 4))
    rho_y = np.arccosh(1.0 + draws[:, 0] * (math.cosh(radius) - 1.0))
    y = np.tanh(0.5 * rho_y) * np.exp(2j * np.pi * draws[:, 1])
    seps = draws[:, 2] * radius
    xi = np.tanh(0.5 * seps) * np.exp(2j * np.pi * draws[:, 3])
    z = (xi + y) / (np.conj(y) * xi + 1.0)  # the chart of y, sending 0 to y
    points = np.concatenate([y, z])
    if isinstance(spec, Specialization):
        vals = spec.values(points)
    else:
        f = spec if callable(spec) else spec.value
        vals = np.array([f(DiscPoint.from_complex(complex(p))) for p in points])
    diffs = np.abs(vals[:n_pairs] - vals[n_pairs:])

    if np.max(diffs) == 0.0:
        return RegularityReport(0.0, 0.0, 0.0, n_pairs, radius)

    # bin i holds the separations in (edges[i], edges[i+1]]; a separation of
    # exactly 0 is in none.  Each occupied bin's maximum is one reduceat
    # over its run in the sorted order
    edges = np.linspace(0.0, radius, _REGULARITY_BINS + 1)
    bins = np.searchsorted(edges, seps, side="left") - 1
    keep = bins >= 0
    order = np.argsort(bins[keep])
    bins, binned = bins[keep][order], diffs[keep][order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(bins)) + 1))
    occupied = bins[starts]
    centers = 0.5 * (edges[occupied] + edges[occupied + 1])
    envelope = np.maximum.reduceat(binned, starts)

    large = centers >= 1.0
    fit_x = centers[large] if np.sum(large) >= 3 else centers
    fit_y = envelope[large] if np.sum(large) >= 3 else envelope

    alpha_fit, c_fit = _fit_envelope(fit_x, fit_y)

    big = seps >= 1.0
    lipschitz_c = float(np.max(diffs[big] / seps[big])) if np.any(big) else float(
        np.max(diffs / np.maximum(seps, 1e-9))
    )
    return RegularityReport(
        alpha_fit=alpha_fit,
        c_fit=c_fit,
        lipschitz_c=lipschitz_c,
        n_pairs=n_pairs,
        radius=radius,
        bin_centers=tuple(centers),
        bin_envelope=tuple(envelope),
    )
