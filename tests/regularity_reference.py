"""The per-alpha regularity fit: one mask per bin, one lstsq per exponent.

The reference that cocycle.estimate_regularity, which bins and fits in
array passes, is tested against.  It samples the same pairs from the same
stream, so the two reports can be compared field by field.
"""

import math

import numpy as np

from hyplyap.cocycle import _REGULARITY_BINS, RegularityReport, _resolve_rng


def reference_fit(fit_x, fit_y):
    """(alpha, c) of the first smallest residual over the alpha grid."""
    best = (math.inf, 0.0, 0.0)
    for alpha in np.linspace(0.0, 2.0, 81):
        basis = np.column_stack([fit_x ** alpha, np.ones_like(fit_x)])
        coef, *_ = np.linalg.lstsq(basis, fit_y, rcond=None)
        c = max(coef[0], 0.0)
        resid = float(np.sum((basis @ [c, coef[1]] - fit_y) ** 2))
        if resid < best[0]:
            best = (resid, float(alpha), c)
    return best[1], best[2]


def reference_estimate_regularity(spec, n_pairs: int, radius: float, rng) -> RegularityReport:
    """estimate_regularity for a Specialization, binned one mask at a time
    and fitted by reference_fit."""
    gen = _resolve_rng(rng)
    draws = gen.random((n_pairs, 4))
    rho_y = np.arccosh(1.0 + draws[:, 0] * (math.cosh(radius) - 1.0))
    y = np.tanh(0.5 * rho_y) * np.exp(2j * np.pi * draws[:, 1])
    seps = draws[:, 2] * radius
    xi = np.tanh(0.5 * seps) * np.exp(2j * np.pi * draws[:, 3])
    z = (xi + y) / (np.conj(y) * xi + 1.0)
    vals = spec.values(np.concatenate([y, z]))
    diffs = np.abs(vals[:n_pairs] - vals[n_pairs:])
    if np.max(diffs) == 0.0:
        return RegularityReport(0.0, 0.0, 0.0, n_pairs, radius)

    edges = np.linspace(0.0, radius, _REGULARITY_BINS + 1)
    centers, envelope = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (seps > a) & (seps <= b)
        if np.any(mask):
            centers.append(0.5 * (a + b))
            envelope.append(float(np.max(diffs[mask])))
    centers = np.asarray(centers)
    envelope = np.asarray(envelope)
    large = centers >= 1.0
    fit_x = centers[large] if np.sum(large) >= 3 else centers
    fit_y = envelope[large] if np.sum(large) >= 3 else envelope
    alpha_fit, c_fit = reference_fit(fit_x, fit_y)

    big = seps >= 1.0
    lipschitz_c = float(np.max(diffs[big] / seps[big])) if np.any(big) else float(
        np.max(diffs / np.maximum(seps, 1e-9)))
    return RegularityReport(alpha_fit=alpha_fit, c_fit=c_fit, lipschitz_c=lipschitz_c,
                            n_pairs=n_pairs, radius=radius, bin_centers=tuple(centers),
                            bin_envelope=tuple(envelope))
