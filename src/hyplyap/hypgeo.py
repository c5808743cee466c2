"""Exact curvature -1 geometry on the Poincare disc: points, distance and
Mobius maps.

Convention: the metric is ds = 2|dz|/(1-|z|^2), for which the distance from
the origin to a point at Euclidean radius r is R = log((1+r)/(1-r)) and the
inverse conversion is r = tanh(R/2).  All operations below are closed-form;
no iteration, no series.  The maps build the octagon group and serve the
scalar checks; the routes move their rays and walkers with vectorized
kernels of their own (`lyapunov._ray_step`, `diffusion._polar_step` and
`diffusion._disc_step`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "DiscPoint",
    "MobiusMap",
    "GeometryError",
    "dist_P",
    "mobius_identity",
    "mobius_translation",
    "mobius_point_chart",
]

# A point is rejected once its Euclidean norm reaches this bound; beyond it
# the double-precision gap to the unit circle is too coarse for geometry.
_MAX_ABS = 1.0 - 1e-15


class GeometryError(ValueError):
    """Invalid geometric input (point outside the disc, degenerate map)."""


@dataclass(frozen=True)
class DiscPoint:
    """A point of the open unit disc, the universal cover of every leaf."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise GeometryError("disc point coordinates must be finite")
        if abs(complex(self.re, self.im)) >= _MAX_ABS:
            raise GeometryError(
                f"point {self.re}+{self.im}j lies outside the representable disc"
            )

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def from_complex(z: complex) -> "DiscPoint":
        return DiscPoint(z.real, z.imag)

    @staticmethod
    def origin() -> "DiscPoint":
        return DiscPoint(0.0, 0.0)


def _as_complex(p) -> complex:
    if isinstance(p, DiscPoint):
        return p.z
    z = complex(p)
    # written so that a nan coordinate fails it too
    if not abs(z) < _MAX_ABS:
        raise GeometryError(f"point {z} lies outside the representable disc")
    return z


def dist_P(p, q) -> float:
    """Hyperbolic distance between two disc points.

    dist_P(0, r) = log((1+r)/(1-r)) for real 0 <= r < 1.
    """
    z, w = _as_complex(p), _as_complex(q)
    num = abs(z - w)
    den = abs(1.0 - z.conjugate() * w)
    # delta < 1 always holds inside the disc; atanh keeps full precision
    # for nearby points where the log-quotient form would cancel.
    return 2.0 * math.atanh(num / den)


@dataclass(frozen=True)
class MobiusMap:
    """Disc automorphism z -> (a z + b) / (conj(b) z + conj(a)).

    The coefficient pair is stored with |a|^2 - |b|^2 = 1 (unit-determinant
    representative, fixed up to global sign), which makes composition plain
    2x2 matrix multiplication in SU(1,1).
    """

    a: complex
    b: complex

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if not math.isfinite(det) or abs(det) < 1e-14:
            raise GeometryError(f"degenerate Mobius coefficients (det={det})")
        if det < 0.0:
            raise GeometryError("coefficients map the disc onto its complement")
        # renormalize unconditionally so composition chains cannot drift
        s = 1.0 / math.sqrt(det)
        object.__setattr__(self, "a", self.a * s)
        object.__setattr__(self, "b", self.b * s)

    def __call__(self, p):
        z = _as_complex(p)
        w = (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())
        if isinstance(p, DiscPoint):
            return DiscPoint(w.real, w.imag)
        return w

    def __mul__(self, other: "MobiusMap") -> "MobiusMap":
        """self after other: (self*other)(z) = self(other(z))."""
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return MobiusMap(a, b)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.a.conjugate(), -self.b)


def mobius_identity() -> MobiusMap:
    return MobiusMap(1.0 + 0.0j, 0.0j)


def mobius_translation(direction: float, length: float) -> MobiusMap:
    """Hyperbolic translation moving 0 to distance `length` along the
    geodesic with leaf-direction `direction` (in [0,1) turns)."""
    if not math.isfinite(length) or length < 0.0:
        raise GeometryError(f"translation length must be finite and >= 0, got {length}")
    a = math.cosh(0.5 * length) + 0.0j
    b = cmath.exp(2.0j * math.pi * direction) * math.sinh(0.5 * length)
    return MobiusMap(a, b)


def mobius_point_chart(base) -> MobiusMap:
    """The unique disc automorphism sending 0 to `base` with positive real
    derivative at 0; the covering chart used for normal coordinates."""
    z = _as_complex(base)
    s = 1.0 / math.sqrt(1.0 - abs(z) ** 2)
    return MobiusMap(s + 0.0j, s * z)

