"""Calibration loops: fixed work, none of it from hyplyap, timed next to
every measured call.

The host's speed drifts by tens of percent within a minute, and CPU time
drifts with wall time, so repetition alone does not steady a median.  Pass and
slot times are therefore reported in reference seconds: the measured
time scaled by REFERENCE_S over the mean duration of the calibration loop
run just before and just after the call.  The loop does the same kind of
work as the workload's operations, so it slows down with them.
"""

import math
import time

REFERENCE_S = 0.03


def _engine(np):
    """The ensemble engine's mix: Gaussian draws, a complex Mobius step and
    a masked batched 2x2 product on 400 walkers."""
    rng = np.random.default_rng(0)
    centres = 0.5 * np.exp(0.25j * np.pi * np.arange(8))
    image = np.array([[2.0, 1.0], [1.0, 1.0]])
    frames = np.broadcast_to(np.eye(2), (400, 2, 2)).copy()
    z = np.zeros(400, complex)
    for _ in range(60):
        n1, n2 = rng.standard_normal(400), rng.standard_normal(400)
        xi = np.exp(1j * np.arctan2(n2, n1)) * np.tanh(0.15 * np.hypot(n1, n2))
        z = 0.9 * (xi + z) / (1.0 + np.conj(z) * xi)
        side = np.abs(z[None, :] - centres[:, None]) ** 2 - 0.75 * np.abs(z)[None, :] ** 2
        first = np.argmax(side < -0.2, axis=0)
        for j in range(3):
            mask = first == j
            frames[mask] = np.einsum("ij,njk->nik", image, frames[mask])
        frames /= np.max(np.abs(frames), axis=(1, 2))[:, None, None]


def _scalar(np):
    """The scalar trackers' mix: complex Mobius maps and 2x2 products one
    point at a time."""
    a, b = complex(1.2, 0.3), complex(0.4, -0.2)
    scale = 1.0 / math.sqrt(abs(a) ** 2 - abs(b) ** 2)
    a, b = a * scale, b * scale
    image = np.array([[2.0, 1.0], [1.0, 1.0]])
    w, m = 0.1 + 0.1j, np.eye(2)
    for _ in range(2000):
        w = (a * w + b) / (b.conjugate() * w + a.conjugate())
        if abs(w) > 0.9:
            w = -0.5 * w
        m = m @ image
        m = m / float(np.max(np.abs(m)))


def _walker(np):
    """The polar walker's mix: hyperbolic law-of-cosines steps on 5000
    walkers."""
    rng = np.random.default_rng(0)
    rho, psi = np.zeros(5000), np.zeros(5000)
    for _ in range(35):
        n1, n2 = rng.standard_normal(5000), rng.standard_normal(5000)
        ell, beta = 0.2 * np.hypot(n1, n2), np.arctan2(n2, n1)
        u, ch, sh = np.exp(-2.0 * rho), np.cosh(ell), np.sinh(ell)
        y = 0.5 * ((1.0 + u) * ch + (1.0 - u) * sh * np.cos(beta))
        rho = np.minimum(rho + np.log(y + np.sqrt(np.maximum(y * y - u, 0.0))), 5.0)
        psi = psi + np.arctan2(np.sin(beta) * sh, np.cosh(rho) - ch)


LOOPS = {
    "spectrum": (_engine, _scalar),
    "tracking": (_engine, _scalar),
    "diagnostics": (_walker,),
}


def timer(workload):
    """A function that runs the workload's calibration loop and returns its
    duration in seconds."""
    import numpy as np   # after the caller has pinned the BLAS thread count

    parts = LOOPS[workload]

    def calibrate():
        t0 = time.perf_counter()
        for part in parts:
            part(np)
        return time.perf_counter() - t0

    return calibrate


def reference_seconds(seconds, calibration):
    return seconds * REFERENCE_S / calibration
